// Package names is the one place enum-name resolution lives. The
// public API exposes several small int-backed enums (backend, ω
// kernel, job kind) that must parse and print identically wherever
// a name crosses a boundary: CLI flags, the api wire package, the
// omegad service, and config echoes in reports. Before this package
// each enum carried a hand-written String/Parse switch pair; drifting
// copies of those switches are exactly how a service and a CLI end up
// disagreeing about what "auto" means.
//
// A Registry[T] holds the canonical name of every value (index =
// value, matching the iota-dense enums it serves) plus optional parse
// aliases, and derives both directions from that single table:
//
//	var backendNames = names.New[Backend]("backend", "Backend", "cpu", "gpu-sim", "fpga-sim")
//
//	func (b Backend) String() string             { return backendNames.String(b) }
//	func ParseBackend(n string) (Backend, error) { return backendNames.Parse(n) }
//
// Parse∘String is the identity over every registered value by
// construction; the symmetry tests at the repository root iterate the
// registries to pin it.
package names

import (
	"fmt"
	"strings"
)

// Registry maps the dense values of an int-backed enum to their
// canonical names and back. Build one with New at package init; the
// zero value is not usable.
type Registry[T ~int] struct {
	kind      string
	goName    string
	canonical []string
	aliases   map[string]T
}

// New builds a registry for an enum whose values are 0..len(canonical)-1
// in declaration order — value i prints as canonical[i]. kind names the
// enum in parse errors ("backend", "scheduler", …); goName is the Go
// type name String falls back to for out-of-range values ("Backend").
func New[T ~int](kind, goName string, canonical ...string) *Registry[T] {
	if len(canonical) == 0 {
		panic("names: registry needs at least one canonical name")
	}
	r := &Registry[T]{kind: kind, goName: goName, canonical: canonical, aliases: map[string]T{}}
	for i, n := range canonical {
		if _, dup := r.aliases[n]; dup {
			panic(fmt.Sprintf("names: duplicate canonical name %q in %s registry", n, kind))
		}
		r.aliases[n] = T(i)
	}
	return r
}

// Alias registers an extra accepted spelling for v (e.g. "gpu" for
// "gpu-sim", or "" for the zero value so empty wire fields default).
// String never prints an alias. Returns the registry for chaining.
func (r *Registry[T]) Alias(name string, v T) *Registry[T] {
	if _, dup := r.aliases[name]; dup {
		panic(fmt.Sprintf("names: alias %q already taken in %s registry", name, r.kind))
	}
	if int(v) < 0 || int(v) >= len(r.canonical) {
		panic(fmt.Sprintf("names: alias %q targets unregistered %s value %d", name, r.kind, int(v)))
	}
	r.aliases[name] = v
	return r
}

// String returns the canonical name of v, or "<GoName>(<int>)" for a
// value outside the registry — the conventional Stringer fallback, so
// diagnostics of corrupt values stay readable.
func (r *Registry[T]) String(v T) string {
	if i := int(v); i >= 0 && i < len(r.canonical) {
		return r.canonical[i]
	}
	return fmt.Sprintf("%s(%d)", r.goName, int(v))
}

// Parse resolves a canonical name or alias. The error lists every
// canonical spelling; callers owning a sentinel (ErrUnknownBackend)
// wrap it around this error for errors.Is dispatch.
func (r *Registry[T]) Parse(name string) (T, error) {
	if v, ok := r.aliases[name]; ok {
		return v, nil
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", r.kind, name, strings.Join(r.canonical, ", "))
}

// Valid reports whether v is a registered value — the Validate hook for
// configs carrying the enum.
func (r *Registry[T]) Valid(v T) bool {
	return int(v) >= 0 && int(v) < len(r.canonical)
}

// Names returns the canonical names in value order (a fresh slice).
func (r *Registry[T]) Names() []string {
	out := make([]string, len(r.canonical))
	copy(out, r.canonical)
	return out
}
