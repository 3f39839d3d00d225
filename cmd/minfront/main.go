// Command minfront inspects the problem frontends: it generates seeded
// source-problem instances, compiles instance files into the engine's
// policy source texts, solves them, and checks solved assignments against
// each frontend's source-level security and minimality oracle — the
// command-line companion to minupd's POST /problems/{family} routes.
//
// Usage:
//
//	minfront -list
//	minfront -family suppress -gen [-seed 7] [-size 5] > table.json
//	minfront -family suppress -in table.json [-emit] [-stats] [-solve] [-check]
//
// -list prints the registered families. -gen writes a seeded instance in
// the family's round-trippable JSON format to stdout. -in reads and
// compiles an instance file (use "-" for stdin) to its lattice and
// constraint texts (valid minupd policy source) and parses them with
// constraint.ParsePolicy into the set minupd's catalog would serve; then
// -emit prints the texts, -stats the set's shape, -solve the minimal
// classification, and -check re-verifies the solved assignment with the
// engine verifier, the engine minimality probe, and the frontend's own
// source-problem oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"minup"
	"minup/internal/constraint"
)

func main() {
	list := flag.Bool("list", false, "list the registered problem families")
	family := flag.String("family", "", "problem family (see -list)")
	gen := flag.Bool("gen", false, "generate a seeded instance and print its JSON to stdout")
	seed := flag.Int64("seed", 1, "generator seed (with -gen)")
	size := flag.Int("size", 5, "generator size knob (with -gen)")
	in := flag.String("in", "", `instance file to parse and compile ("-" for stdin)`)
	emit := flag.Bool("emit", false, "print the compiled lattice and constraint texts")
	stats := flag.Bool("stats", false, "print the compiled constraint-set shape to stderr")
	solve := flag.Bool("solve", false, "solve the compiled instance and print the assignment")
	check := flag.Bool("check", false, "verify the solved assignment (implies -solve): engine verify, engine minimality probe, and the frontend's source-level oracle")
	flag.Parse()

	if *list {
		for _, name := range minup.ProblemFamilies() {
			fe, ok := minup.LookupProblemFrontend(name)
			if !ok {
				continue
			}
			fmt.Printf("%-10s %s\n", name, fe.Describe())
		}
		return
	}
	if *family == "" {
		flag.Usage()
		os.Exit(2)
	}
	fe, ok := minup.LookupProblemFrontend(*family)
	if !ok {
		fatal(fmt.Errorf("unknown family %q (minfront -list shows the registered ones)", *family))
	}

	var inst minup.ProblemInstance
	switch {
	case *gen:
		var err error
		inst, err = fe.Generate(*seed, *size)
		if err != nil {
			fatal(err)
		}
	case *in != "":
		var data []byte
		var err error
		if *in == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*in)
		}
		if err != nil {
			fatal(err)
		}
		inst, err = fe.Parse(data)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -gen or -in FILE (or -list)"))
	}

	if *gen && *in == "" && !*emit && !*stats && !*solve && !*check {
		// Pure generation: print the instance JSON and stop, so
		// `minfront -family f -gen > f.json` composes with -in.
		raw, err := minup.MarshalProblemInstance(inst)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		return
	}

	c, err := fe.Compile(inst)
	if err != nil {
		fatal(err)
	}
	if *emit {
		fmt.Print(c.LatticeText)
		fmt.Print(c.ConstraintText)
	}
	set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "minfront:", set.Stats())
	}
	if !*solve && !*check {
		if !*emit && !*stats {
			fmt.Fprintf(os.Stderr, "minfront: %s instance %q compiles to %d attrs, %d constraints (add -emit, -solve, or -check)\n",
				*family, inst.InstanceName(), set.NumAttrs(), len(set.Constraints()))
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	compiled := set.CompileContext(ctx)
	res, err := minup.SolveContext(ctx, compiled, minup.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(set.FormatAssignment(res.Assignment))
	if *check {
		if err := minup.Verify(set, res.Assignment); err != nil {
			fatal(fmt.Errorf("engine verify: %w", err))
		}
		minimal, w, err := minup.ProbeMinimalityContext(ctx, compiled, res.Assignment)
		if err != nil {
			fatal(err)
		}
		if !minimal {
			fatal(fmt.Errorf("engine minimality probe: %s lowerable to %s",
				set.AttrName(w.Attr), set.Lattice().FormatLevel(w.To)))
		}
		if err := fe.Oracle(inst, set, res.Assignment); err != nil {
			fatal(fmt.Errorf("source oracle: %w", err))
		}
		fmt.Fprintf(os.Stderr, "minfront: verified %d constraints, engine minimality, and the %s source oracle\n",
			len(set.Constraints()), *family)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minfront:", err)
	os.Exit(1)
}
