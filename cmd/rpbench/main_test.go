package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags pins which flag values rpbench accepts: every
// in-range value passes, and every out-of-range one is rejected with a
// message naming the flag before any work starts.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-table", "0"}, ""},
		{[]string{"-table", "1"}, ""},
		{[]string{"-table", "3"}, ""},
		{[]string{"-table", "4"}, "-table 4"},
		{[]string{"-table", "-1"}, "-table -1"},
		{[]string{"-check", "paranoid"}, ""},
		{[]string{"-failfast"}, ""},
		{[]string{"-check", "bogus"}, "bogus"},
		{[]string{"-oracle", "-1"}, "-oracle -1"},
		{[]string{"-pressure-gen", "-1"}, "-pressure-gen -1"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("rpbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := registerFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		opts, err := c.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%v: accepted, want an error mentioning %q", tc.args, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.wantErr)
		case err == nil && opts.FailFast != c.failFast:
			t.Errorf("%v: options carry FailFast=%v, want %v", tc.args, opts.FailFast, c.failFast)
		}
	}
}
