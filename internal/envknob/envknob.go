// Package envknob centralizes LAMELLAR_* environment-knob parsing.
//
// Before it existed every package rolled its own reader and most of them
// silently ignored malformed values — a typo'd LAMELLAR_WATCHDOG_MS=1o
// fell back to the default with no signal, which in a benchmark run reads
// as "the knob made no difference". Every helper here routes parse failures
// through the diag logger as warnings instead, and boolean knobs accept
// one spelling set everywhere (LAMELLAR_TRACE used to take 1/true while
// LAMELLAR_SLAB_CHECK took only "1").
package envknob

import (
	"os"
	"strconv"
	"strings"

	"repro/internal/diag"
)

// component tags the diag warnings emitted by this package.
const component = "envknob"

// LookupInt reads an integer knob. Unset returns (0, false); a malformed
// value warns and returns (0, false) as if unset.
func LookupInt(name string) (int, bool) {
	v := os.Getenv(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		diag.Warnf(component, "ignoring %s=%q: %v", name, v, err)
		return 0, false
	}
	return n, true
}

// LookupFloat reads a float knob with the same unset/malformed contract
// as LookupInt.
func LookupFloat(name string) (float64, bool) {
	v := os.Getenv(name)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		diag.Warnf(component, "ignoring %s=%q: %v", name, v, err)
		return 0, false
	}
	return f, true
}

// LookupBool reads a boolean knob. Accepted spellings (case-insensitive):
// 1/t/true/yes/on and 0/f/false/no/off. Unset returns (false, false);
// anything else warns and returns (false, false) as if unset.
func LookupBool(name string) (bool, bool) {
	v := os.Getenv(name)
	if v == "" {
		return false, false
	}
	switch strings.ToLower(v) {
	case "1", "t", "true", "yes", "on":
		return true, true
	case "0", "f", "false", "no", "off":
		return false, true
	}
	diag.Warnf(component, "ignoring %s=%q: not a boolean (want 1/true/yes/on or 0/false/no/off)", name, v)
	return false, false
}

// Bool reads a boolean knob with a default for unset or malformed values.
func Bool(name string, def bool) bool {
	if v, ok := LookupBool(name); ok {
		return v
	}
	return def
}
