// Command rafiki-bench regenerates the paper's tables and figures from the
// reproduced system and prints their series (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers).
//
// Usage:
//
//	rafiki-bench -exp all            # every figure, quick scale
//	rafiki-bench -exp fig8 -scale full
//	rafiki-bench -exp fig14,fig15
//	rafiki-bench -exp ablations
//	rafiki-bench -verify-journal artifacts/journal   # offline hash-chain audit
//
// Serving and training performance is measured end to end by the benchmark/
// module (bash benchmark/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"rafiki/internal/exp"
	"rafiki/internal/journal"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids: fig2,fig3,table1,fig6,fig8,fig9,fig10,fig11,fig13,fig14,fig15,fig16,ablations,all")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 0, "override random seed (0 keeps the default)")
	verifyJournal := flag.String("verify-journal", "", "verify the hash chain of the journal directory at this path and exit (non-zero on corruption)")
	flag.Parse()

	if *verifyJournal != "" {
		res := journal.VerifyDir(*verifyJournal)
		if !res.ChainOK {
			log.Fatalf("rafiki-bench: journal %s: chain broken at seq %d: %s", *verifyJournal, res.BadSeq, res.Reason)
		}
		fmt.Printf("journal %s: chain ok, %d records, last seq %d\n", *verifyJournal, res.Records, res.LastSeq)
		return
	}

	var sc exp.Scale
	switch *scaleFlag {
	case "quick":
		sc = exp.QuickScale()
	case "full":
		sc = exp.FullScale()
	default:
		log.Fatalf("rafiki-bench: unknown scale %q", *scaleFlag)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	runners := map[string]func() (*exp.Figure, error){
		"fig2":   func() (*exp.Figure, error) { return exp.Fig2Registry(), nil },
		"fig3":   func() (*exp.Figure, error) { return exp.Fig3(), nil },
		"table1": exp.Table1,
		"fig6":   func() (*exp.Figure, error) { return exp.Fig6(sc) },
		"fig8":   func() (*exp.Figure, error) { return exp.Fig8(sc) },
		"fig9":   func() (*exp.Figure, error) { return exp.Fig9(sc) },
		"fig10":  func() (*exp.Figure, error) { return exp.Fig10(sc) },
		"fig11":  func() (*exp.Figure, error) { return exp.Fig11(sc) },
		"fig13":  func() (*exp.Figure, error) { return exp.Fig13(sc) },
		"fig14":  func() (*exp.Figure, error) { return exp.Fig14(sc) },
		"fig15":  func() (*exp.Figure, error) { return exp.Fig15(sc) },
		"fig16":  func() (*exp.Figure, error) { return exp.Fig16(sc) },
	}
	ablations := []func() (*exp.Figure, error){
		func() (*exp.Figure, error) { return exp.AblationTieBreak(sc) },
		func() (*exp.Figure, error) { return exp.AblationAlphaGreedy(sc) },
		func() (*exp.Figure, error) { return exp.AblationBackoff(sc) },
		func() (*exp.Figure, error) { return exp.AblationWorkload(sc) },
	}
	order := []string{"fig2", "fig3", "table1", "fig6", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16"}

	var selected []func() (*exp.Figure, error)
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		switch id {
		case "all":
			for _, oid := range order {
				selected = append(selected, runners[oid])
			}
			selected = append(selected, ablations...)
		case "ablations":
			selected = append(selected, ablations...)
		default:
			r, ok := runners[id]
			if !ok {
				log.Fatalf("rafiki-bench: unknown experiment %q", id)
			}
			selected = append(selected, r)
		}
	}

	for _, run := range selected {
		fig, err := run()
		if err != nil {
			log.Fatalf("rafiki-bench: %v", err)
		}
		fmt.Println(fig.String())
	}
}
