package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Digest fingerprints everything a run measured, bit for bit: the
// controller name, the summary, the job counts, the power-cycle rate,
// the daily worst ranges, the disk profile and every series sample. Two
// results digest equal only when all of these are identical. The golden
// determinism tests pin it.
//
// The encoding depends on values alone. Summary and DiskProfile go
// through %#v, which prints every float in its shortest exact form.
// Floats outside them are hashed as their IEEE-754 bits. Each sample
// contributes its 13 plotted channels in a fixed order: time, outside
// temperature, inlet min/max, disk min/max, inside RH, mode (as an
// integer), fan, compressor, cooling power, IT power, utilization. (A
// gob stream would not do: gob numbers types process-wide in first-use
// order, so its bytes depend on what else the process encoded first.)
func (r *Result) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%#v\n%#v\n%d %d %d %d\n", r.Controller, r.Summary, r.DiskProfile,
		r.JobsSubmitted, r.JobsCompleted, len(r.DailyWorstRanges), len(r.Series))
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(r.MaxPowerCycleRate))
	for _, v := range r.DailyWorstRanges {
		put(math.Float64bits(v))
	}
	for i := range r.Series {
		p := &r.Series[i]
		for _, v := range [...]float64{p.Time, p.OutsideTemp, p.InletMin, p.InletMax, p.DiskMin, p.DiskMax, p.InsideRH} {
			put(math.Float64bits(v))
		}
		put(uint64(p.Mode))
		for _, v := range [...]float64{p.FanSpeed, p.CompSpeed, p.CoolingW, p.ITW, p.Utilization} {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
