// Package higgs reproduces the paper's real-world use case (Section 6,
// "Find the Higgs Boson"): analysis of ATLAS-like event data stored in a
// ROOT-like file, joined against a CSV of "good runs".
//
// The paper's 900 GB of real ATLAS ROOT files are not available, so this
// package generates synthetic events with the same shape: an event tree
// whose entries own variable-length lists of muons, electrons and jets
// stored as satellite trees — the representation RAW models as tables
// (paper Figure 13). A "good runs" CSV lists run numbers later validated.
//
// Two analyses compute the same candidate count:
//
//   - Handwritten mirrors the physicists' C++: an object-at-a-time loop over
//     events through the ROOT-like library API (and its buffer pool), with
//     all cuts expressed as code.
//   - RunRAW expresses the selection declaratively on the engine:
//     per-collection aggregates with HAVING, staged through in-memory result
//     tables, joined with the good-runs CSV — heterogeneous raw files
//     queried transparently in one analysis.
package higgs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/engine"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// Selection cuts of the simplified Higgs candidate search: an event is a
// candidate when its run is good and it contains at least MinLeptons muons
// AND at least MinLeptons electrons with Pt above PtCut and |eta| below
// EtaCut (a 2-muon/2-electron final state).
const (
	PtCut      = 20.0
	EtaCut     = 2.4
	MinLeptons = 2
)

// Params sizes the synthetic dataset.
type Params struct {
	Events      int
	Runs        int     // number of distinct run numbers
	GoodRunFrac float64 // fraction of runs in the good-runs list
	MeanLeptons int     // mean muons/electrons per event (0 selects 3)
	Compress    bool    // compress baskets (as ATLAS files are)
	Seed        int64
}

// Data is a generated dataset plus the independently computed ground truth.
type Data struct {
	RootImage []byte
	GoodRuns  []byte // CSV, one good run number per row
	// Candidates is the reference answer, computed during generation
	// without going through either analysis path.
	Candidates int64
}

// Generate builds the dataset.
func Generate(p Params) (*Data, error) {
	if p.Events <= 0 {
		return nil, fmt.Errorf("higgs: Events must be positive")
	}
	if p.Runs <= 0 {
		p.Runs = 50
	}
	if p.GoodRunFrac <= 0 || p.GoodRunFrac > 1 {
		p.GoodRunFrac = 0.7
	}
	if p.MeanLeptons <= 0 {
		p.MeanLeptons = 3
	}
	rng := rand.New(rand.NewSource(p.Seed))

	good := make(map[int64]bool)
	var goodBuf bytes.Buffer
	gw := csvfile.NewWriter(&goodBuf, []vector.Type{vector.Int64})
	for run := int64(0); run < int64(p.Runs); run++ {
		if rng.Float64() < p.GoodRunFrac {
			good[run] = true
			if err := gw.WriteRow([]int64{run}, nil); err != nil {
				return nil, err
			}
		}
	}
	if err := gw.Flush(); err != nil {
		return nil, err
	}

	var rootBuf bytes.Buffer
	w := rootfile.NewWriter(&rootBuf, rootfile.Options{BasketEntries: 2048, Compress: p.Compress})
	events := w.Tree("events")
	evID := events.Branch("eventID", vector.Int64)
	evRun := events.Branch("runNumber", vector.Int64)
	// first/count index branches give the hand-written analysis per-event
	// access to its sub-objects, as ROOT's nested containers do.
	idx := map[string][2]*rootfile.BranchWriter{}
	coll := map[string]*collWriter{}
	for _, name := range []string{"muons", "electrons", "jets"} {
		idx[name] = [2]*rootfile.BranchWriter{
			events.Branch(name+"_first", vector.Int64),
			events.Branch(name+"_count", vector.Int64),
		}
		tw := w.Tree(name)
		coll[name] = &collWriter{
			event: tw.Branch("eventID", vector.Int64),
			pt:    tw.Branch("pt", vector.Float64),
			eta:   tw.Branch("eta", vector.Float64),
		}
	}

	var candidates int64
	for ev := 0; ev < p.Events; ev++ {
		run := rng.Int63n(int64(p.Runs))
		evID.AppendInt64(int64(ev))
		evRun.AppendInt64(run)
		pass := map[string]int{}
		for _, name := range []string{"muons", "electrons", "jets"} {
			c := coll[name]
			n := poisson(rng, float64(p.MeanLeptons))
			idx[name][0].AppendInt64(c.n)
			idx[name][1].AppendInt64(int64(n))
			for k := 0; k < n; k++ {
				pt := rng.ExpFloat64() * 15
				eta := rng.Float64()*6 - 3
				c.event.AppendInt64(int64(ev))
				c.pt.AppendFloat64(pt)
				c.eta.AppendFloat64(eta)
				c.n++
				if pt > PtCut && math.Abs(eta) < EtaCut {
					pass[name]++
				}
			}
		}
		if good[run] && pass["muons"] >= MinLeptons && pass["electrons"] >= MinLeptons {
			candidates++
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Data{RootImage: rootBuf.Bytes(), GoodRuns: goodBuf.Bytes(), Candidates: candidates}, nil
}

type collWriter struct {
	event, pt, eta *rootfile.BranchWriter
	n              int64
}

// poisson samples a Poisson variate by inversion (small means only).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 64 {
			return k
		}
	}
}

// Handwritten is the baseline analysis: the idiomatic translation of the
// physicists' C++ — one event at a time, reading each attribute through the
// ROOT-like library's id-based API, applying cuts in code. Its second run is
// faster only because the library's buffer pool is warm; the processing
// remains object-at-a-time.
func Handwritten(f *rootfile.File, goodRuns []byte) (int64, error) {
	good := make(map[int64]bool)
	for pos := 0; pos < len(goodRuns); {
		start, end, next := csvfile.FieldBounds(goodRuns, pos)
		if end > start {
			v, err := bytesconv.ParseInt64(goodRuns[start:end])
			if err != nil {
				return 0, fmt.Errorf("higgs: good runs: %w", err)
			}
			good[v] = true
		}
		pos = next
	}

	events, err := f.Tree("events")
	if err != nil {
		return 0, err
	}
	// ROOT reads whole objects: TTree::GetEntry(i) deserializes every active
	// branch of the entry, and reading a nested container materialises each
	// sub-object in full. The hand-written analysis therefore touches all
	// event fields and all fields of every muon/electron/jet, even though
	// the cuts use only muon and electron pt/eta — the per-object cost RAW's
	// column shreds avoid.
	type event struct {
		eventID, runNumber int64
		first, count       [3]int64
	}
	type particle struct {
		eventID int64
		pt, eta float64
	}
	evID, err := events.Branch("eventID")
	if err != nil {
		return 0, err
	}
	evRun, err := events.Branch("runNumber")
	if err != nil {
		return 0, err
	}
	collNames := []string{"muons", "electrons", "jets"}
	type collReader struct {
		first, count     *rootfile.Branch
		eventID, pt, eta *rootfile.Branch
	}
	colls := make([]collReader, 0, len(collNames))
	for _, name := range collNames {
		var c collReader
		if c.first, err = events.Branch(name + "_first"); err != nil {
			return 0, err
		}
		if c.count, err = events.Branch(name + "_count"); err != nil {
			return 0, err
		}
		tr, err := f.Tree(name)
		if err != nil {
			return 0, err
		}
		if c.eventID, err = tr.Branch("eventID"); err != nil {
			return 0, err
		}
		if c.pt, err = tr.Branch("pt"); err != nil {
			return 0, err
		}
		if c.eta, err = tr.Branch("eta"); err != nil {
			return 0, err
		}
		colls = append(colls, c)
	}

	readParticle := func(c collReader, k int64) (particle, error) {
		var p particle
		var err error
		if p.eventID, err = c.eventID.Int64At(k); err != nil {
			return p, err
		}
		if p.pt, err = c.pt.Float64At(k); err != nil {
			return p, err
		}
		if p.eta, err = c.eta.Float64At(k); err != nil {
			return p, err
		}
		return p, nil
	}

	var candidates int64
	for i := int64(0); i < events.NEntries(); i++ {
		// GetEntry(i): the full event object.
		var ev event
		if ev.eventID, err = evID.Int64At(i); err != nil {
			return 0, err
		}
		if ev.runNumber, err = evRun.Int64At(i); err != nil {
			return 0, err
		}
		for ci, c := range colls {
			if ev.first[ci], err = c.first.Int64At(i); err != nil {
				return 0, err
			}
			if ev.count[ci], err = c.count.Int64At(i); err != nil {
				return 0, err
			}
		}
		if !good[ev.runNumber] {
			continue
		}
		ok := true
		for ci := range colls {
			passing := 0
			for k := ev.first[ci]; k < ev.first[ci]+ev.count[ci]; k++ {
				p, err := readParticle(colls[ci], k)
				if err != nil {
					return 0, err
				}
				// Only muons and electrons carry cuts; jets are read (the
				// object model materialises them) but not selected on.
				if ci < 2 && p.pt > PtCut && math.Abs(p.eta) < EtaCut {
					passing++
				}
			}
			if ci < 2 && passing < MinLeptons {
				ok = false
				break
			}
		}
		if ok {
			candidates++
		}
	}
	return candidates, nil
}

// Register registers the dataset's trees and the good-runs CSV with an
// engine. Schemas are partial: the events table omits the first/count index
// branches only the hand-written analysis uses, and the jets tree is
// registered but untouched by the query — both mirroring RAW's partial
// schema support for files with thousands of attributes.
func Register(e *engine.Engine, d *Data) error {
	if err := e.RegisterRootData("events", d.RootImage, "events", []catalog.Column{
		{Name: "eventID", Type: vector.Int64},
		{Name: "runNumber", Type: vector.Int64},
	}); err != nil {
		return err
	}
	leptonSchema := []catalog.Column{
		{Name: "eventID", Type: vector.Int64},
		{Name: "pt", Type: vector.Float64},
		{Name: "eta", Type: vector.Float64},
	}
	for _, name := range []string{"muons", "electrons", "jets"} {
		if err := e.RegisterRootData(name, d.RootImage, name, leptonSchema); err != nil {
			return err
		}
	}
	return e.RegisterCSVData("goodruns", d.GoodRuns, []catalog.Column{
		{Name: "run", Type: vector.Int64},
	})
}

// RunRAW executes the declarative analysis on an engine prepared by
// Register: per-collection qualification (aggregate + HAVING), staged
// through memory tables, then joined with the good-run events. It returns
// the candidate count.
func RunRAW(e *engine.Engine) (int64, error) {
	stage := func(name, query string, renames []string) error {
		res, err := e.Query(query)
		if err != nil {
			return fmt.Errorf("higgs: %s: %w", name, err)
		}
		_ = e.DropTable(name) // drop any previous run's staging table
		return e.RegisterResult(name, res, renames)
	}
	leptonQuery := func(table string) string {
		return fmt.Sprintf(
			"SELECT eventID, COUNT(*) FROM %s WHERE pt > %v AND eta < %v AND eta > %v GROUP BY eventID HAVING COUNT(*) >= %d",
			table, PtCut, EtaCut, -EtaCut, MinLeptons)
	}
	if err := stage("mu_sel", leptonQuery("muons"), []string{"eventID", "n"}); err != nil {
		return 0, err
	}
	if err := stage("el_sel", leptonQuery("electrons"), []string{"eventID", "n"}); err != nil {
		return 0, err
	}
	if err := stage("ev_good",
		"SELECT e.eventID, e.runNumber FROM events e, goodruns g WHERE e.runNumber = g.run",
		[]string{"eventID", "runNumber"}); err != nil {
		return 0, err
	}
	if err := stage("cand",
		"SELECT m.eventID, COUNT(*) FROM mu_sel m, el_sel e WHERE m.eventID = e.eventID GROUP BY m.eventID",
		[]string{"eventID", "n"}); err != nil {
		return 0, err
	}
	res, err := e.Query(
		"SELECT COUNT(*) FROM cand c, ev_good g WHERE c.eventID = g.eventID")
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, t := range []string{"mu_sel", "el_sel", "ev_good", "cand"} {
			_ = e.DropTable(t)
		}
	}()
	return res.Int64(0, 0), nil
}
