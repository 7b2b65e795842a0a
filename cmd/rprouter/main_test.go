package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestFlagInventory pins rprouter's flags: adding or removing one has to
// change the list below, and every flag has to be documented in the
// README.
func TestFlagInventory(t *testing.T) {
	want := []string{"addr", "drain-timeout", "port-file", "quota-burst", "quota-rps", "replicas"}
	fs, _ := flags()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, want) {
		t.Fatalf("rprouter flags = %q, want %q", got, want)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(readme) {
			t.Errorf("README.md does not mention -%s", name)
		}
	}
}
