// Higgs: the paper's real-world use case (Section 6). An ATLAS-like dataset
// — a ROOT-like file of events owning muons/electrons/jets, plus a CSV of
// good runs — is analysed twice:
//
//   - by a hand-written, object-at-a-time program using the file library
//     directly (the physicists' C++ workflow), and
//   - declaratively on the engine, joining the scientific file with the CSV
//     transparently and staging aggregate results as memory tables.
//
// Both run cold and warm. Cold runs are comparable; warm, the engine's
// column-shred cache makes re-analysis orders of magnitude faster than the
// object-at-a-time loop, the paper's headline result (its Table 3).
//
//	go run ./examples/higgs
package main

import (
	"fmt"
	"log"
	"time"

	"rawdb"
	"rawdb/internal/higgs"
	"rawdb/internal/storage/rootfile"
)

func main() {
	const events = 50_000
	fmt.Printf("generating %d ATLAS-like events...\n", events)
	d, err := higgs.Generate(higgs.Params{Events: events, Runs: 100, Compress: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: %d Higgs candidates\n\n", d.Candidates)

	// Hand-written analysis through the file library.
	f, err := rootfile.Parse(d.RootImage)
	if err != nil {
		log.Fatal(err)
	}
	for _, run := range []string{"cold", "warm"} {
		start := time.Now()
		n, err := higgs.Handwritten(f, d.GoodRuns)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hand-written %-5s %10v  candidates=%d\n", run, time.Since(start).Round(time.Microsecond), n)
	}

	// Declarative analysis on the engine, via the public API, over the same
	// image. The events table declares only 2 of its branches and the jets
	// tree is never touched — RAW's partial schemas at work.
	eng := raw.NewEngine(raw.Config{Strategy: raw.StrategyShreds})
	lepton := []raw.Column{
		{Name: "eventID", Type: raw.Int64},
		{Name: "pt", Type: raw.Float64},
		{Name: "eta", Type: raw.Float64},
	}
	if err := eng.RegisterRootData("events", d.RootImage, "events", []raw.Column{
		{Name: "eventID", Type: raw.Int64},
		{Name: "runNumber", Type: raw.Int64},
	}); err != nil {
		log.Fatal(err)
	}
	for _, tree := range []string{"muons", "electrons"} {
		if err := eng.RegisterRootData(tree, d.RootImage, tree, lepton); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.RegisterCSVData("goodruns", d.GoodRuns,
		[]raw.Column{{Name: "run", Type: raw.Int64}}); err != nil {
		log.Fatal(err)
	}

	for _, run := range []string{"cold", "warm"} {
		start := time.Now()
		n, err := analyse(eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RAW          %-5s %10v  candidates=%d\n", run, time.Since(start).Round(time.Microsecond), n)
	}
}

// analyse is the declarative Higgs selection: per-collection qualification
// with HAVING, staged through memory tables, joined with good-run events.
func analyse(eng *raw.Engine) (int64, error) {
	stage := func(name, query string, renames []string) error {
		res, err := eng.Query(query)
		if err != nil {
			return err
		}
		_ = eng.DropTable(name)
		return eng.RegisterResult(name, res, renames)
	}
	lepton := func(table string) string {
		return fmt.Sprintf(
			"SELECT eventID, COUNT(*) FROM %s WHERE pt > %v AND eta < %v AND eta > %v GROUP BY eventID HAVING COUNT(*) >= %d",
			table, higgs.PtCut, higgs.EtaCut, -higgs.EtaCut, higgs.MinLeptons)
	}
	if err := stage("mu_sel", lepton("muons"), []string{"eventID", "n"}); err != nil {
		return 0, err
	}
	if err := stage("el_sel", lepton("electrons"), []string{"eventID", "n"}); err != nil {
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
	defer func() {
		for _, t := range []string{"mu_sel", "el_sel", "ev_good", "cand"} {
			_ = eng.DropTable(t)
		}
	}()
	res, err := eng.Query("SELECT COUNT(*) FROM cand c, ev_good g WHERE c.eventID = g.eventID")
	if err != nil {
		return 0, err
	}
	return res.Int64(0, 0), nil
}
