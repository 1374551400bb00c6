package envknob

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/diag"
)

// captureWarnings redirects diag output to a buffer for the test body and
// returns what was written. Serialized: diag's sink is process-global.
var captureMu sync.Mutex

func captureWarnings(t *testing.T, body func()) string {
	t.Helper()
	captureMu.Lock()
	defer captureMu.Unlock()
	var buf bytes.Buffer
	prevLevel := diag.CurrentLevel()
	diag.SetOutput(&buf)
	diag.SetLevel(diag.LevelWarn)
	defer func() {
		diag.SetOutput(nil)
		diag.SetLevel(prevLevel)
	}()
	body()
	return buf.String()
}

func TestLookupIntMalformedWarns(t *testing.T) {
	t.Setenv("LAMELLAR_TEST_KNOB", "1o")
	out := captureWarnings(t, func() {
		if v, ok := LookupInt("LAMELLAR_TEST_KNOB"); ok || v != 0 {
			t.Errorf("malformed value parsed as (%d, %v)", v, ok)
		}
	})
	if !strings.Contains(out, "LAMELLAR_TEST_KNOB") || !strings.Contains(out, "1o") {
		t.Errorf("no warning naming the knob and value; got %q", out)
	}
}

func TestLookupIntValidAndUnset(t *testing.T) {
	t.Setenv("LAMELLAR_TEST_KNOB", "42")
	out := captureWarnings(t, func() {
		if v, ok := LookupInt("LAMELLAR_TEST_KNOB"); !ok || v != 42 {
			t.Errorf("got (%d, %v), want (42, true)", v, ok)
		}
		if _, ok := LookupInt("LAMELLAR_TEST_KNOB_UNSET"); ok {
			t.Error("unset knob reported ok")
		}
	})
	if out != "" {
		t.Errorf("unexpected warning %q", out)
	}
}

func TestLookupFloatMalformedWarns(t *testing.T) {
	t.Setenv("LAMELLAR_TEST_FLOAT", "0.o5")
	out := captureWarnings(t, func() {
		if _, ok := LookupFloat("LAMELLAR_TEST_FLOAT"); ok {
			t.Error("malformed float reported ok")
		}
	})
	if !strings.Contains(out, "LAMELLAR_TEST_FLOAT") {
		t.Errorf("no warning for malformed float; got %q", out)
	}
}

func TestLookupBoolSpellings(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want bool
	}{
		{"1", true}, {"true", true}, {"TRUE", true}, {"yes", true}, {"on", true}, {"t", true},
		{"0", false}, {"false", false}, {"False", false}, {"no", false}, {"off", false}, {"f", false},
	} {
		t.Setenv("LAMELLAR_TEST_BOOL", tc.raw)
		v, ok := LookupBool("LAMELLAR_TEST_BOOL")
		if !ok || v != tc.want {
			t.Errorf("LookupBool(%q) = (%v, %v), want (%v, true)", tc.raw, v, ok, tc.want)
		}
	}
}

func TestLookupBoolMalformedWarns(t *testing.T) {
	t.Setenv("LAMELLAR_TEST_BOOL", "enable")
	out := captureWarnings(t, func() {
		if _, ok := LookupBool("LAMELLAR_TEST_BOOL"); ok {
			t.Error("malformed bool reported ok")
		}
	})
	if !strings.Contains(out, "LAMELLAR_TEST_BOOL") {
		t.Errorf("no warning for malformed bool; got %q", out)
	}
}

func TestBoolDefault(t *testing.T) {
	t.Setenv("LAMELLAR_TEST_BOOL", "bogus")
	captureWarnings(t, func() {
		if !Bool("LAMELLAR_TEST_BOOL", true) {
			t.Error("malformed bool did not fall back to default true")
		}
		if Bool("LAMELLAR_TEST_BOOL_UNSET", false) {
			t.Error("unset bool did not fall back to default false")
		}
	})
}
