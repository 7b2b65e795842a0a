// Command rpanalyze runs the static IR diagnostics over a program
// without transforming it: dead stores, unreachable blocks, SSA
// dominance violations, never-promotable memory webs (with the
// blocking alias reason), and register-pressure hotspots. Input is
// mini-C or the textual-IR dialect (detected by extension, .mc/.c vs
// .ll, or forced with -lang).
//
// Usage:
//
//	rpanalyze file.c            # human report
//	rpanalyze kernel.ll         # imported textual IR
//	rpanalyze -json file.c      # versioned JSON report
//	rpanalyze -rules dead-store,pressure-hotspot file.c
//	rpanalyze -pressure-threshold 6 file.c
//	rpanalyze -strict file.c    # exit 1 on any error-severity finding
//	rpanalyze -list-rules
//	cat file.c | rpanalyze -    # read program from stdin (-lang to override)
//
// The rules run here only: the pipeline does not run them. This command
// calls diag.AnalyzeProgram directly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/alias"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/source"
)

func main() {
	var (
		lang      = flag.String("lang", "", "input language override: mc or ll (default: detect from the file extension; stdin defaults to mc)")
		jsonOut   = flag.Bool("json", false, "emit the versioned JSON report instead of the human one")
		rules     = flag.String("rules", "", "comma-separated rule subset (default: all; see -list-rules)")
		threshold = flag.Int("pressure-threshold", 0, "pressure-hotspot threshold (0 = default)")
		strict    = flag.Bool("strict", false, "exit non-zero when any error-severity finding is reported")
		listRules = flag.Bool("list-rules", false, "list the registered rules and exit")
	)
	flag.Parse()

	if *listRules {
		for _, r := range diag.Rules() {
			fmt.Printf("%-18s %-5s %s\n", r.Name, r.Severity, r.Desc)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpanalyze [flags] file.c  (or - for stdin; see -h)")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	srcLang := *lang
	switch srcLang {
	case "":
		if flag.Arg(0) == "-" {
			srcLang = irimport.LangMiniC
		} else if srcLang, err = irimport.DetectLang(flag.Arg(0)); err != nil {
			fatal(err)
		}
	case irimport.LangMiniC, irimport.LangIR:
	default:
		fatal(fmt.Errorf("unknown -lang %q (want mc or ll)", srcLang))
	}

	var prog *ir.Program
	if srcLang == irimport.LangIR {
		prog, err = irimport.Parse(flag.Arg(0), src)
	} else {
		prog, err = source.Compile(src)
	}
	if err != nil {
		fatal(fmt.Errorf("compile: %w", err))
	}
	if err := alias.Analyze(prog); err != nil {
		fatal(fmt.Errorf("alias analysis: %w", err))
	}

	opts := diag.Options{PressureThreshold: *threshold}
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				opts.Rules = append(opts.Rules, r)
			}
		}
	}
	findings, err := diag.AnalyzeProgram(prog, opts)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		data, err := diag.FormatJSON(findings)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	} else {
		fmt.Print(diag.Format(findings))
	}

	if *strict && diag.NewReport(findings).Errors > 0 {
		os.Exit(1)
	}
}

// readSource loads the program text from a file, or stdin for "-".
func readSource(path string) (string, error) {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpanalyze:", err)
	os.Exit(1)
}
