// Command benchtab regenerates the reproduction experiment tables E1–E12
// described in DESIGN.md and recorded in EXPERIMENTS.md: the Figure 2
// worked example, the Theorem 5.2 scaling measurements, the §5 lattice-
// encoding costs, the baseline comparisons, the Theorem 6.1 NP-hardness
// contrast, and the §6 extensions.
//
// Usage:
//
//	benchtab                          # run every experiment
//	benchtab -exp E3,E7               # run selected experiments
//	benchtab -list                    # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minup/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and titles, then exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	ids := experiments.IDs()
	if *expFlag != "" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (have %s)\n",
					id, strings.Join(experiments.IDs(), ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		table, err := experiments.Registry[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(table.Format())
	}
}
