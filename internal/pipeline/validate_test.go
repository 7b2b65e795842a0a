package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
)

// TestValidateRejectsBadOptions sweeps every field Validate guards and
// checks each violation comes back as a typed *OptionError naming the
// right field.
func TestValidateRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative pressure cap", Options{PressureCap: -2}, "PressureCap"},
		{"algorithm too big", Options{Algorithm: AlgNone + 1}, "Algorithm"},
		{"algorithm negative", Options{Algorithm: -1}, "Algorithm"},
		{"check too big", Options{Check: CheckParanoid + 1}, "Check"},
		{"check negative", Options{Check: -3}, "Check"},
		{"negative max steps", Options{Interp: interp.Options{MaxSteps: -1}}, "Interp.MaxSteps"},
		{"negative max depth", Options{Interp: interp.Options{MaxDepth: -1}}, "Interp.MaxDepth"},
		{"negative max output", Options{Interp: interp.Options{MaxOutput: -1}}, "Interp.MaxOutput"},
		{"negative timeout", Options{Interp: interp.Options{Timeout: -time.Second}}, "Interp.Timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v, want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("OptionError.Field = %q, want %q", oe.Field, tc.field)
			}
			if !strings.Contains(oe.Error(), tc.field) {
				t.Fatalf("Error() = %q does not name field %q", oe.Error(), tc.field)
			}
		})
	}
}

// TestValidateAcceptsDefaultsAndExtremes checks the zero value and the
// documented boundary values validate.
func TestValidateAcceptsDefaultsAndExtremes(t *testing.T) {
	good := []Options{
		{},
		{Algorithm: AlgNone, Check: CheckParanoid},
		{PressureCap: 0},
		{Interp: interp.Options{MaxSteps: 1, MaxDepth: 1, MaxOutput: 1, Timeout: time.Nanosecond}},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

// TestRunRejectsInvalidOptions checks Run surfaces the typed error
// before doing any work.
func TestRunRejectsInvalidOptions(t *testing.T) {
	_, err := Run(`void main() { print(1); }`, Options{PressureCap: -4})
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("Run with PressureCap=-4 returned %v, want *OptionError", err)
	}
	if oe.Field != "PressureCap" {
		t.Fatalf("OptionError.Field = %q, want PressureCap", oe.Field)
	}
}

// TestParseAlgorithm round-trips every algorithm name and rejects
// unknown ones.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{AlgSSA, AlgBaseline, AlgMemOpt, AlgNone} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if _, err := ParseAlgorithm("turbo"); err == nil {
		t.Fatal("ParseAlgorithm(turbo) succeeded, want error")
	}
}
