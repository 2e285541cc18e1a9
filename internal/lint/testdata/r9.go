// Fixture for R9 (clone-and-emit-coverage). Posed as a package under
// internal/sim, it defines a local Stats stand-in plus three clone
// shapes: a method that aliases a slice, a helper that forgets a deep
// copy, and one with no whole-struct copy. Negative cases: Notes is
// deep-copied via append, Trace in cloneStats is deep-copied through a
// keyed element-copy helper, Scratch and Trace carry emission
// exemptions, and the unexported field is ignored throughout. The
// in-scope case runs R9 alone: the local Stats has no checkpoint walk,
// which R8 would report.
package fixture9

import "strconv"

type Event struct{ Seq uint64 }

type Stats struct {
	Cycles  int64
	Notes   []string
	Trace   []Event
	Scratch int64
	hidden  int64
	Hook    func() // want:R9 (func fields cannot round-trip the JSON store)
}

//lint:exempt-field R9 Stats.Scratch internal workspace, reported by external tooling
//lint:exempt-field R9 Stats.Trace event dump rendered elsewhere, too long for String

// String emits Cycles and Notes; Scratch and Trace are exempted above,
// so nothing is missing and no emit diagnostic may appear here.
func (s Stats) String() string {
	out := strconv.FormatInt(s.Cycles, 10)
	for _, n := range s.Notes {
		out += " " + n
	}
	return out
}

// Clone deep-copies Notes correctly but aliases Trace.
func (s Stats) Clone() Stats {
	out := s
	out.Notes = append([]string(nil), s.Notes...)
	out.Trace = s.Trace // want:R9
	return out
}

// cloneStats deep-copies Trace through a helper (accepted) but forgets
// Notes entirely, relying on the aliasing whole-struct copy.
func cloneStats(st Stats) Stats { // want:R9
	out := st
	out.Trace = cloneEvents(st.Trace)
	return out
}

// cloneBad has no whole-struct copy: the reference fields are handled,
// but Cycles, Scratch and Hook silently zero. (Exemptions cover
// emission only — clone exhaustiveness is never exemptible.)
func cloneBad(st Stats) Stats { // want:R9
	var out Stats
	out.Notes = append([]string(nil), st.Notes...)
	out.Trace = cloneEvents(st.Trace)
	return out
}

// cloneEvents is a keyed element-copy helper; its parameter is not the
// root type, so it is not itself audited as a clone function.
func cloneEvents(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = e
	}
	return out
}
