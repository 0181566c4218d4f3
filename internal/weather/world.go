package weather

import (
	"math"
	"math/rand"
	"sync"

	"coolair/internal/units"
)

// landBox is a crude rectangular approximation of a land mass, used to
// scatter the world-wide evaluation sites over plausible ground instead
// of open ocean. The paper evaluates 1520 locations from the US DOE TMY
// collection; we reproduce the same coverage pattern (dense in North
// America, Europe, and Asia; sparser in the southern hemisphere).
type landBox struct {
	name           string
	latMin, latMax float64
	lonMin, lonMax float64
	continentality float64 // 0 = marine, 1 = deep continental interior
}

var landBoxes = []landBox{
	{"north-america", 25, 62, -125, -65, 0.85},
	{"central-america", 8, 25, -110, -78, 0.45},
	{"south-america-north", -20, 8, -78, -40, 0.55},
	{"south-america-south", -55, -20, -73, -55, 0.55},
	{"europe-west", 36, 62, -10, 20, 0.55},
	{"europe-east", 45, 62, 20, 45, 0.8},
	{"scandinavia", 55, 70, 5, 30, 0.6},
	{"north-africa", 12, 34, -15, 35, 0.9},
	{"central-africa", -12, 12, 10, 40, 0.6},
	{"southern-africa", -34, -12, 15, 35, 0.7},
	{"middle-east", 15, 40, 35, 60, 0.9},
	{"central-asia", 38, 55, 45, 90, 0.95},
	{"south-asia", 8, 35, 68, 92, 0.7},
	{"east-asia", 22, 50, 100, 130, 0.8},
	{"siberia", 50, 68, 60, 140, 1.0},
	{"southeast-asia", -8, 20, 95, 120, 0.35},
	{"australia", -38, -12, 115, 152, 0.8},
	{"new-zealand", -46, -35, 167, 178, 0.2},
	{"japan", 31, 44, 130, 142, 0.3},
	{"uk-ireland", 50, 58, -10, 1, 0.2},
	{"iceland", 63, 66, -23, -14, 0.15},
}

// WorldSiteCount is the number of world-wide locations in the sweep,
// matching the paper's 1520.
const WorldSiteCount = 1520

// WorldGrid returns the climates of WorldSiteCount world-wide sites
// scattered over the land boxes. The grid is built once per process;
// each call returns a fresh copy the caller may modify.
func WorldGrid() []Climate {
	return append([]Climate(nil), worldGrid()...)
}

// worldGrid deterministically generates the world grid, once.
var worldGrid = sync.OnceValue(func() []Climate {
	// Scatter candidate points on a grid inside each box, area-weighted.
	var candidates []Climate
	const step = 2.4 // degrees of latitude between grid rows
	for _, b := range landBoxes {
		for lat := b.latMin + step/2; lat < b.latMax; lat += step {
			// Longitude step shrinks with cos(lat) to keep surface
			// density roughly even.
			lonStep := step / math.Max(0.3, math.Cos(lat*math.Pi/180))
			for lon := b.lonMin + lonStep/2; lon < b.lonMax; lon += lonStep {
				candidates = append(candidates, climateFor(lat, lon, b.continentality))
			}
		}
	}
	if len(candidates) <= WorldSiteCount {
		return candidates
	}
	// Deterministic even subsample down to exactly WorldSiteCount.
	out := make([]Climate, 0, WorldSiteCount)
	for i := 0; i < WorldSiteCount; i++ {
		idx := i * len(candidates) / WorldSiteCount
		out = append(out, candidates[idx])
	}
	return out
})

// climateFor derives plausible climate-normal parameters from latitude
// and a continentality index, with small deterministic per-site jitter
// standing in for altitude and local geography.
func climateFor(lat, lon, continentality float64) Climate {
	rng := rand.New(rand.NewSource(int64(math.Float64bits(lat*7.31+lon*13.77)) ^ 0x5eed))
	jitter := func(amp float64) float64 { return amp * (2*rng.Float64() - 1) }

	absLat := math.Abs(lat)
	sinLat := math.Sin(absLat * math.Pi / 180)

	// Annual mean: ~27°C at the equator falling to ~−11°C at 70°.
	mean := 27 - 42*sinLat*sinLat + jitter(3)

	// Seasonal swing grows with latitude and continentality.
	seasonal := (1.5 + 20*continentality) * math.Pow(sinLat, 1.2)
	seasonal += jitter(1.5)
	if seasonal < 0.5 {
		seasonal = 0.5
	}

	// Humidity: humid near the equator, arid in the subtropical belts
	// (deserts near 25° latitude), moderately humid at high latitude.
	arid := math.Exp(-((absLat - 25) / 12) * ((absLat - 25) / 12))
	rh := 80 - 38*arid*continentality + jitter(6)
	if rh < 20 {
		rh = 20
	}
	if rh > 92 {
		rh = 92
	}

	// Diurnal swing: larger when arid and continental.
	diurnal := 3 + 6*continentality*(1-rh/100)*2 + jitter(1)
	if diurnal < 1.5 {
		diurnal = 1.5
	}
	if diurnal > 10 {
		diurnal = 10
	}

	// Synoptic variability: strongest in the mid-latitude storm tracks.
	storm := math.Exp(-((absLat - 50) / 18) * ((absLat - 50) / 18))
	front := 1 + 5*storm + jitter(0.5)
	if front < 0.5 {
		front = 0.5
	}

	return Climate{
		Name: gridName(lat, lon),
		Lat:  lat, Lon: lon,
		AnnualMean:   units.Celsius(mean),
		SeasonalAmp:  seasonal,
		DiurnalAmp:   diurnal,
		FrontAmp:     front,
		MeanRH:       units.RelHumidity(rh),
		RHDiurnalAmp: 8 + 10*(1-rh/100),
	}
}

func gridName(lat, lon float64) string {
	ns, ew := "N", "E"
	if lat < 0 {
		ns = "S"
	}
	if lon < 0 {
		ew = "W"
	}
	return fmtCoord(math.Abs(lat)) + ns + fmtCoord(math.Abs(lon)) + ew
}

func fmtCoord(v float64) string {
	// One decimal of precision keeps names short and unique enough.
	whole := int(v)
	tenth := int(math.Round((v - float64(whole)) * 10))
	if tenth == 10 {
		whole++
		tenth = 0
	}
	return itoa(whole) + "." + itoa(tenth)
}

// itoa avoids pulling strconv into the hot path for name formatting.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
