// Package fixture routes map-iteration order into the wire encoders: the
// taint survives a local re-assignment and a struct-field store, which is
// exactly what the syntactic determinism matcher cannot see.
package fixture

import "ripple/internal/wire"

// Encode serialises map keys in whatever order Go iterates them.
func Encode(m map[uint64]bool) []byte {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	ids := keys
	return wire.AppendUints(nil, ids) // want `"ids" carries map-iteration order into wire\.AppendUints`
}

type params struct {
	Tau     float64
	Exclude []uint64
}

// EncodeParams is the diversification exclusion list before it was sorted:
// the map order reaches the encoder through a struct field.
func EncodeParams(exclude map[uint64]bool, tau float64) []byte {
	p := params{Tau: tau}
	for id := range exclude {
		p.Exclude = append(p.Exclude, id)
	}
	b := wire.AppendFloat(nil, p.Tau)
	return wire.AppendUints(b, p.Exclude) // want `"Exclude" carries map-iteration order into wire\.AppendUints`
}

// CanonicalForm is a canonical-form builder by naming convention: feeding it
// unsorted map-ordered input is a replay-divergence bug.
func CanonicalForm(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p
	}
	return out
}

// BuildKey collects map keys and hands them to the canonical builder.
func BuildKey(m map[string]bool) string {
	var parts []string
	for k := range m {
		parts = append(parts, k)
	}
	return CanonicalForm(parts) // want `"parts" carries map-iteration order into CanonicalForm`
}
