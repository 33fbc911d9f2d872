package higgs

import (
	"testing"

	"rawdb/internal/engine"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/rootfile"
)

func generate(t *testing.T, events int, compress bool) *Data {
	t.Helper()
	d, err := Generate(Params{Events: events, Runs: 20, Seed: 42, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateProducesCandidates(t *testing.T) {
	d := generate(t, 3000, false)
	if d.Candidates == 0 {
		t.Fatal("dataset has no candidates; cuts or distributions are off")
	}
	if d.Candidates > 3000/2 {
		t.Fatalf("implausibly many candidates: %d", d.Candidates)
	}
	if len(d.GoodRuns) == 0 {
		t.Fatal("no good runs emitted")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Params{}); err == nil {
		t.Fatal("expected error for zero events")
	}
}

func TestHandwrittenMatchesGroundTruth(t *testing.T) {
	for _, compress := range []bool{false, true} {
		d := generate(t, 2000, compress)
		f, err := rootfile.Parse(d.RootImage)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Handwritten(f, d.GoodRuns)
		if err != nil {
			t.Fatal(err)
		}
		if got != d.Candidates {
			t.Fatalf("compress=%v: handwritten = %d, want %d", compress, got, d.Candidates)
		}
		// Warm re-run: same answer, pool hits.
		got2, err := Handwritten(f, d.GoodRuns)
		if err != nil {
			t.Fatal(err)
		}
		if got2 != d.Candidates {
			t.Fatalf("warm handwritten = %d, want %d", got2, d.Candidates)
		}
		hits, _ := f.Pool().Stats()
		if hits == 0 {
			t.Fatal("warm run should hit the buffer pool")
		}
	}
}

func TestRunRAWMatchesGroundTruthAllStrategies(t *testing.T) {
	d := generate(t, 2000, true)
	for _, strat := range []engine.Strategy{
		engine.StrategyDBMS, engine.StrategyInSitu, engine.StrategyJIT, engine.StrategyShreds,
	} {
		t.Run(strat.String(), func(t *testing.T) {
			e := engine.New(engine.Config{Strategy: strat, PosMapPolicy: posmap.Policy{EveryK: 1}})
			if err := Register(e, d); err != nil {
				t.Fatal(err)
			}
			got, err := RunRAW(e)
			if err != nil {
				t.Fatal(err)
			}
			if got != d.Candidates {
				t.Fatalf("RAW(%s) = %d, want %d", strat, got, d.Candidates)
			}
			// Warm run (shreds cached) must agree.
			got2, err := RunRAW(e)
			if err != nil {
				t.Fatal(err)
			}
			if got2 != d.Candidates {
				t.Fatalf("warm RAW(%s) = %d, want %d", strat, got2, d.Candidates)
			}
		})
	}
}

func TestHandwrittenAgreesWithRAW(t *testing.T) {
	d := generate(t, 4000, true)
	f, err := rootfile.Parse(d.RootImage)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Handwritten(f, d.GoodRuns)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Strategy: engine.StrategyShreds, PosMapPolicy: posmap.Policy{EveryK: 1}})
	if err := Register(e, d); err != nil {
		t.Fatal(err)
	}
	raw, err := RunRAW(e)
	if err != nil {
		t.Fatal(err)
	}
	if hw != raw || hw != d.Candidates {
		t.Fatalf("handwritten=%d raw=%d truth=%d", hw, raw, d.Candidates)
	}
}
