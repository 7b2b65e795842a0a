package report

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/pipeline"
)

const encodeSrc = `
int a = 3;
int b = 4;
void main() {
	int i;
	for (i = 0; i < 10; i++) {
		a = a + b;
	}
	print(a);
}
`

// TestEncodeOutcomeStable checks the encoding carries the schema
// version and marshals identically across two runs — the property the
// serving layer's content-addressed cache depends on.
func TestEncodeOutcomeStable(t *testing.T) {
	marshal := func() []byte {
		t.Helper()
		out, err := pipeline.Run(encodeSrc, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(EncodeOutcome(out))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := marshal()
	var enc OutcomeJSON
	if err := json.Unmarshal(first, &enc); err != nil {
		t.Fatal(err)
	}
	if enc.SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version = %d, want %d", enc.SchemaVersion, SchemaVersion)
	}
	if enc.DynBefore == nil || enc.DynAfter == nil || enc.ReturnValue == nil {
		t.Fatalf("measurement fields missing: %s", first)
	}
	if !sort.SliceIsSorted(enc.Funcs, func(i, j int) bool { return enc.Funcs[i].Name < enc.Funcs[j].Name }) {
		t.Fatalf("funcs not sorted by name: %s", first)
	}
	if !sort.SliceIsSorted(enc.Globals, func(i, j int) bool { return enc.Globals[i].Name < enc.Globals[j].Name }) {
		t.Fatalf("globals not sorted by name: %s", first)
	}

	if again := marshal(); !bytes.Equal(first, again) {
		t.Fatalf("repeated run encoded differently:\n%s\nvs\n%s", first, again)
	}
}

// TestEncodeOutcomeSkipMeasurement checks the dynamic fields are
// omitted (not zeroed) when the run skipped measurement.
func TestEncodeOutcomeSkipMeasurement(t *testing.T) {
	out, err := pipeline.Run(encodeSrc, pipeline.Options{SkipMeasurement: true})
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeOutcome(out)
	if enc.DynBefore != nil || enc.DynAfter != nil || enc.ReturnValue != nil || enc.Globals != nil {
		t.Fatalf("skip-measurement encoding carries dynamic fields: %+v", enc)
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"dyn_before", "dyn_after", "return_value", "globals"} {
		if bytes.Contains(data, []byte(absent)) {
			t.Fatalf("marshaled skip-measurement outcome contains %q: %s", absent, data)
		}
	}
}
