package main

import (
	"testing"

	"coolair/internal/weather"
)

// tinyGrid is one location under Baseline, All-ND and All-DEF for one
// day on the Nutch trace: every controller wrapper and the deferrable
// path in a few seconds.
func tinyGrid(t *testing.T) *grid {
	t.Helper()
	spec := nutchDeferrable()
	spec.climates = []weather.Climate{weather.Newark}
	spec.days = []int{180}
	return newGrid(smallLab(t), spec)
}

func TestTracedPassMatchesUntracedPass(t *testing.T) {
	g := tinyGrid(t)
	plain, _ := g.pass(false)
	traced, _ := g.pass(true)
	for i := range plain {
		if plain[i].err != nil || traced[i].err != nil {
			t.Fatalf("cell %d: untraced err %v, traced err %v", i, plain[i].err, traced[i].err)
		}
		if plain[i].digest != traced[i].digest {
			t.Errorf("cell %d (%s): traced digest %s, untraced %s", i, plain[i].system, traced[i].digest, plain[i].digest)
		}
		if traced[i].calls.decideCalls == 0 || traced[i].run <= traced[i].calls.total() {
			t.Errorf("cell %d (%s): %d Decide calls timed, %v in the controller of %v in sim.Run",
				i, traced[i].system, traced[i].calls.decideCalls, traced[i].calls.total(), traced[i].run)
		}
	}
	r := collectRound(traced)
	if r.tks.decideCalls == 0 || r.core.decideCalls == 0 || r.core.scheduleDay == 0 {
		t.Errorf("round split: tks %d calls, core %d calls, core ScheduleDay %v", r.tks.decideCalls, r.core.decideCalls, r.core.scheduleDay)
	}
}

// The benchmark assembles cells through Lab.NewRun; they must simulate
// exactly what Lab.Run (and so RunWorldStudy's grid) simulates.
func TestCellMatchesLabRun(t *testing.T) {
	g := tinyGrid(t)
	cells, _ := g.pass(false)
	for i, sys := range g.spec.systems {
		res, err := g.lab.Run(weather.Newark, sys, g.spec.days, g.trace, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cells[i].digest, digest(res); got != want {
			t.Errorf("%s: benchmark cell digest %s, Lab.Run %s", sys.Name, got, want)
		}
	}
}

func TestWorldSweepOffsetFollowsSeed(t *testing.T) {
	a, b, c := worldSweep(3), worldSweep(3), worldSweep(4)
	if a.climates[0] != b.climates[0] || a.climates[0] == c.climates[0] {
		t.Error("the world-grid offset does not follow the seed")
	}
	if len(a.climates) != worldSites {
		t.Errorf("%d sites, want %d", len(a.climates), worldSites)
	}
}

func TestTrainReplicaMatchesLabModel(t *testing.T) {
	lab := smallLab(t)
	for _, fid := range fidelities {
		_, _, same, err := trainReplica(lab, fid)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("%s: replica's saved model differs from Lab.Model's", fid)
		}
	}
}
