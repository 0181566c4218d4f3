package experiments

import (
	"runtime"
	"testing"

	"coolair/internal/weather"
)

// TestLabRunDigests pins Lab.Run end to end on Newark day 150 for the
// three ways a System reshapes its run: the TKS baseline (all servers
// kept active), All-ND under a +5°C forecast bias, and All-DEF on the
// deadline-stamped trace. sim.Result.Digest covers everything the run
// measured, bit for bit. As with the golden decision digest, the
// comparison is restricted to amd64.
func TestLabRunDigests(t *testing.T) {
	l := sharedLab(t)
	allnd, _ := SystemByName("all-nd")
	allnd.ForecastBias = 5
	alldef, _ := SystemByName("all-def")
	for _, tc := range []struct {
		sys  System
		want string
	}{
		{BaselineSystem(), "690bd2859c266edf7f7a0fdc3f84756836c728002654050caecd539bfbd78271"},
		{allnd, "2cb73cc9bdb48b994b43de17fcd2795ce6196e573648c6e5f483b4d570f909c3"},
		{alldef, "dcff061071c8833578da4ece9263a79a16aa427f2e35bf7bf83f1b1e7298e0d4"},
	} {
		t.Run(tc.sys.Name, func(t *testing.T) {
			res, err := l.Run(weather.Newark, tc.sys, []int{150}, l.Facebook(), true)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Digest()
			t.Logf("%s: %s", tc.sys.Name, got)
			if runtime.GOARCH != "amd64" {
				t.Skipf("digests are recorded on amd64; got %s", runtime.GOARCH)
			}
			if got != tc.want {
				t.Errorf("Lab.Run digest = %s, want %s", got, tc.want)
			}
		})
	}
}
