// Command simlint runs the determinism lint over the module. It is
// stdlib-only (go/parser + go/ast + go/types), so it builds and runs
// offline with nothing but the toolchain.
//
// Usage:
//
//	simlint [flags] [module-root]
//
// The argument is the module root directory (default "."); the go-tool
// style "./..." spelling is accepted and means the same thing, so
// `simlint ./...` works from a Makefile.
//
// Flags:
//
//	-json
//		write findings as a JSON array on stdout (stable field
//		order), the format CI archives and diff tools consume
//
// Exit status is 0 when clean, 1 when any finding is reported, and 2
// when the module cannot be loaded.
//
// See internal/simlint for the rules and the //simlint:allow and
// //simlint:derived directive syntax, and the "Determinism contract"
// section of DESIGN.md for why they exist.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/simlint"
)

func main() {
	jsonOut := flag.Bool("json", false, "write findings as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [module-root]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root := "."
	if args := flag.Args(); len(args) > 0 {
		root = strings.TrimSuffix(args[0], "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	}

	findings, err := simlint.Run(simlint.Config{
		Root:          root,
		Deterministic: simlint.DefaultDeterministic(),
		HostSide:      simlint.DefaultHostSide(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := simlint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
