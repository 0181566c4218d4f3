package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"coolair/internal/weather"
)

// TestLabRunDigests pins Lab.Run end to end on Newark day 150 for the
// three ways a System reshapes its run: the TKS baseline (all servers
// kept active), All-ND under a +5°C forecast bias, and All-DEF on the
// deadline-stamped trace. The digests were recorded before Lab.Run was
// rebuilt on NewRunContext; they cover everything the run measured,
// bit for bit: %#v prints every float in its shortest exact form and,
// unlike %v, bypasses the units' rounding String methods. (A gob stream
// would not do here: gob numbers types process-wide in first-use order,
// so its bytes depend on what else the test binary encoded first.) As
// with the golden decision digest, the comparison is restricted to
// amd64.
func TestLabRunDigests(t *testing.T) {
	l := sharedLab(t)
	allnd, _ := SystemByName("all-nd")
	allnd.ForecastBias = 5
	alldef, _ := SystemByName("all-def")
	for _, tc := range []struct {
		sys  System
		want string
	}{
		{BaselineSystem(), "e38fe6fea85dfbb9cc80a80ffe35f1d24cac4e691da2c58d2a743d876545e8f5"},
		{allnd, "715e0c5a8fda8d3ef72d10927276329f1cd37d7677ceb70eefc6751067954942"},
		{alldef, "6ba19e7bb890ad273bb7ec395a9cb9f7131ceaf5a2cd92312d6c32f449036d84"},
	} {
		t.Run(tc.sys.Name, func(t *testing.T) {
			res, err := l.Run(weather.Newark, tc.sys, []int{150}, l.Facebook(), true)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, v := range []any{res.Controller, res.Summary, res.Series, res.JobsSubmitted, res.JobsCompleted,
				res.MaxPowerCycleRate, res.DailyWorstRanges, res.DiskProfile} {
				fmt.Fprintf(h, "%#v\n", v)
			}
			got := fmt.Sprintf("%x", h.Sum(nil))
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
