package series

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"coolair/internal/trace"
)

// tickAt builds a telemetry record with distinguishable scalars.
func tickAt(ts float64) trace.TickRecord {
	return trace.TickRecord{
		Time: ts, OutsideTemp: 20, OutsideRH: 55, InletMin: 22, InletMax: 28,
		InsideRH: 45, CoolingW: 1500, ITW: 90e3, Utilization: 0.4,
	}
}

// decisionAt builds a controller decision whose winner predicts
// hottest=pred.
func decisionAt(ts, pred float64) trace.DecisionRecord {
	rec := trace.DecisionRecord{
		Time: ts, Source: trace.SourceController, PeriodSeconds: 300,
		ActualHottest: 27, NumCandidates: 1, Winner: 0,
	}
	rec.Candidates[0] = trace.CandidateRecord{NumPods: 2, Penalty: 1.25}
	rec.Candidates[0].PodTemp[0] = pred - 3
	rec.Candidates[0].PodTemp[1] = pred
	return rec
}

func latestV(t *testing.T, db *DB, metric string) float64 {
	t.Helper()
	s, ok := db.Latest(metric)
	if !ok {
		t.Fatalf("no samples for %s", metric)
	}
	return s.V
}

func TestCollectorTickFeedsSeries(t *testing.T) {
	db := NewDB(FleetConfig())
	ring := trace.NewRing(8, 8)
	c := NewCollector(ring, db, nil)

	rec := tickAt(100)
	c.RecordTick(&rec)

	want := map[string]float64{
		MetricInletMax: 28, MetricInletMin: 22, MetricOutside: 20,
		MetricOutsideRH: 55, MetricInsideRH: 45, MetricCoolingW: 1500,
		MetricITW: 90e3, MetricUtilization: 0.4,
	}
	for m, v := range want {
		if got := latestV(t, db, m); got != v {
			t.Errorf("%s = %g, want %g", m, got, v)
		}
	}
	// The tee forwarded to the ring.
	if ring.Metrics().TicksTotal.Value() != 1 {
		t.Errorf("wrapped ring saw %d ticks, want 1", ring.Metrics().TicksTotal.Value())
	}
}

func TestCollectorPredictionPairing(t *testing.T) {
	db := NewDB(FleetConfig())
	c := NewCollector(nil, db, nil)

	d1 := decisionAt(1000, 30)
	c.RecordDecision(&d1)
	if _, ok := db.Latest(MetricPredErr); ok {
		t.Fatal("first decision produced a prediction error (nothing to pair)")
	}
	// Next decision one period later: |actual 27 − predicted 30| = 3.
	d2 := decisionAt(1300, 31)
	c.RecordDecision(&d2)
	if got := latestV(t, db, MetricPredErr); got != 3 {
		t.Fatalf("pred err = %g, want 3", got)
	}
	if got := latestV(t, db, MetricWinnerPen); got != 1.25 {
		t.Errorf("winner penalty = %g, want 1.25", got)
	}
	// A gap beyond 1.5× the period breaks the chain.
	d3 := decisionAt(1300+600, 32)
	c.RecordDecision(&d3)
	if got := db.Appended(ID(8)); got != 1 { // MetricPredErr is the 9th registered
		t.Fatalf("gapped pair recorded: pred-err samples = %d, want still 1", got)
	}
}

func TestCollectorGuardBreaksChainAndCounts(t *testing.T) {
	db := NewDB(FleetConfig())
	c := NewCollector(nil, db, nil)

	d1 := decisionAt(1000, 30)
	c.RecordDecision(&d1)
	guard := trace.DecisionRecord{Time: 1100, Source: trace.SourceGuard, Guard: 1, Winner: -1}
	c.RecordDecision(&guard)
	if got := latestV(t, db, MetricGuard); got != 1 {
		t.Fatalf("guard intervention = %g, want 1", got)
	}
	// The guard record broke the pairing chain: the next controller
	// decision pairs with nothing.
	d2 := decisionAt(1300, 31)
	c.RecordDecision(&d2)
	if _, ok := db.Latest(MetricPredErr); ok {
		t.Fatal("pairing survived a guard record in between")
	}
	if got := latestV(t, db, MetricGuard); got != 0 {
		t.Fatalf("clean decision guard sample = %g, want 0", got)
	}
}

func TestCollectorSpanAccumFlush(t *testing.T) {
	db := NewDB(FleetConfig())
	c := NewCollector(nil, db, nil)

	c.RecordSpan(trace.PhasePredict, 0.010)
	c.RecordSpan(trace.PhasePenalty, 0.005)
	if _, ok := db.Latest(MetricDecisionSec); ok {
		t.Fatal("spans flushed before the decision")
	}
	d := decisionAt(1000, 30)
	c.RecordDecision(&d)
	if got := latestV(t, db, MetricDecisionSec); got != 0.015 {
		t.Fatalf("decision_seconds = %g, want 0.015", got)
	}
	// Accumulator drained: a span-less decision adds no sample.
	d2 := decisionAt(1300, 30)
	c.RecordDecision(&d2)
	id, _ := db.Lookup(MetricDecisionSec)
	if got := db.Appended(id); got != 1 {
		t.Fatalf("decision_seconds samples = %d, want 1", got)
	}
}

func TestCollectorDrivesEngine(t *testing.T) {
	db := NewDB(FleetConfig())
	e := NewEngine(db, []Rule{{
		Name: "hot", Metric: MetricInletMax, Agg: AggMax, Op: OpAbove,
		Threshold: 25, Window: 1000,
	}}, nil, 60)
	c := NewCollector(nil, db, e)
	rec := tickAt(100) // InletMax 28 > 25
	c.RecordTick(&rec)
	if e.FiringCount() != 1 {
		t.Fatalf("engine not driven from the tick path: firing=%d", e.FiringCount())
	}
}

func TestStandardMetricsRegistered(t *testing.T) {
	db := NewDB(FleetConfig())
	NewCollector(nil, db, nil)
	got := db.Metrics()
	want := StandardMetrics()
	if len(got) != len(want) {
		t.Fatalf("registered %d metrics, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestPredictionPairingRingAndCollectorAgree pins that the ring's
// prediction-error histogram, the collector's
// prediction_abs_error_celsius series, and the trace inspector's
// TopPredictionErrors come from the same pairing stage: for each record
// sequence, all three see exactly the expected pairs.
func TestPredictionPairingRingAndCollectorAgree(t *testing.T) {
	const period = 600.0
	ctrl := func(ts, actual, pred float64) trace.DecisionRecord {
		rec := decisionAt(ts, pred)
		rec.PeriodSeconds = period
		rec.ActualHottest = actual
		return rec
	}
	noPred := func(ts, actual float64) trace.DecisionRecord {
		rec := ctrl(ts, actual, 0)
		rec.NumCandidates, rec.Winner = 0, -1
		return rec
	}
	guard := func(ts float64) trace.DecisionRecord {
		return trace.DecisionRecord{Time: ts, Source: trace.SourceGuard, Guard: trace.GuardHold, Winner: -1}
	}
	for _, tc := range []struct {
		name string
		recs []trace.DecisionRecord
		want []Sample // (pairing record's time, |actual − previous prediction|)
	}{
		{"consecutive controller decisions pair",
			[]trace.DecisionRecord{ctrl(0, 25, 26), ctrl(600, 27, 25.5), ctrl(1200, 24, 24)},
			[]Sample{{600, 1}, {1200, 1.5}}},
		{"guard record breaks the chain",
			[]trace.DecisionRecord{ctrl(0, 25, 26), guard(600), ctrl(1200, 28, 27), ctrl(1800, 26, 26)},
			[]Sample{{1800, 1}}},
		{"gap over 1.5 periods breaks the chain",
			[]trace.DecisionRecord{ctrl(0, 25, 26), ctrl(1000, 30, 26), ctrl(1600, 26.5, 26)},
			[]Sample{{1600, 0.5}}},
		{"day jump breaks the chain",
			[]trace.DecisionRecord{ctrl(0, 25, 26), ctrl(7*86400, 30, 26)},
			nil},
		{"record without a prediction scores, then breaks the chain",
			[]trace.DecisionRecord{ctrl(0, 25, 26), noPred(600, 26.25), ctrl(1200, 29, 26), ctrl(1800, 27, 27)},
			[]Sample{{600, 0.25}, {1800, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring := trace.NewRing(16, 16)
			db := NewDB(Config{RawCap: 64})
			c := NewCollector(ring, db, nil)
			for i := range tc.recs {
				c.RecordDecision(&tc.recs[i])
			}

			// Every raw sample, whatever the window-resolution policy.
			id, _ := db.Lookup(MetricPredErr)
			var got []Sample
			for _, p := range db.series[id].collectRaw(Range{From: math.Inf(-1), To: math.Inf(1)}, 64) {
				got = append(got, Sample{T: p.T, V: p.Last})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("series pairs = %v, want %v", got, tc.want)
			}
			var sum float64
			want := trace.NewHistogram(0.05, 0.1, 0.2, 0.5, 1, 2, 5)
			for i, w := range tc.want {
				if got[i] != w {
					t.Errorf("series pair %d = %v, want %v", i, got[i], w)
				}
				sum += w.V
				want.Observe(w.V)
			}
			h := ring.Metrics().PredictionAbsError
			if h.Count() != int64(len(tc.want)) || h.Sum() != sum {
				t.Errorf("ring histogram count=%d sum=%v, want count=%d sum=%v",
					h.Count(), h.Sum(), len(tc.want), sum)
			}
			_, gotBuckets := h.Buckets()
			_, wantBuckets := want.Buckets()
			if !reflect.DeepEqual(gotBuckets, wantBuckets) {
				t.Errorf("ring histogram buckets = %v, want %v", gotBuckets, wantBuckets)
			}

			// The inspector ranks worst first; compare in time order.
			top := (&trace.Data{Decisions: tc.recs}).TopPredictionErrors(0)
			sort.Slice(top, func(a, b int) bool { return top[a].Time < top[b].Time })
			if len(top) != len(tc.want) {
				t.Fatalf("TopPredictionErrors pairs = %+v, want %v", top, tc.want)
			}
			for i, w := range tc.want {
				if top[i].Time != w.T || top[i].AbsError != w.V || math.Abs(top[i].Actual-top[i].Predicted) != w.V {
					t.Errorf("TopPredictionErrors pair %d = %+v, want %v", i, top[i], w)
				}
			}
		})
	}
}
