// Package accel declares the fixture's two device families: Alpha is a
// scalar-latency device, Beta an engine family whose Invoke builds a
// phased schedule. Both are fully wired into every integration surface;
// the registry tests delete one surface at a time (the trailing
// r13drop: tags mark the deletable lines) and assert R13 notices.
package accel

import "r13fix/internal/isa"

// Alpha is the scalar family.
type Alpha struct{ lat uint64 }

// NewAlpha builds an Alpha with a fixed compute latency.
func NewAlpha(lat uint64) *Alpha { return &Alpha{lat: lat} }

func (d *Alpha) Name() string { return "alpha" }

func (d *Alpha) Invoke(call isa.AccelCall, mem isa.WordReader) isa.AccelResult {
	return isa.AccelResult{Value: call.Args[0] + d.lat, Latency: int(d.lat)}
}

func (d *Alpha) WalkState(words *[]uint64) { *words = append(*words, d.lat) } // r13drop:alpha-walk

// Beta is the engine family: its schedule chunks the word count.
type Beta struct{ chunk int }

// NewBeta builds a Beta streaming the given chunk width.
func NewBeta(chunk int) *Beta { return &Beta{chunk: chunk} }

func (d *Beta) Name() string { return "beta" }

func (d *Beta) Invoke(call isa.AccelCall, mem isa.WordReader) isa.AccelResult {
	words := int(call.Args[1])
	var sched []isa.AccelPhase
	for words > 0 {
		n := d.chunk
		if words < n {
			n = words
		}
		sched = append(sched, isa.AccelPhase{Compute: n})
		words -= n
	}
	return isa.AccelResult{Value: call.Args[0], Schedule: sched}
}

func (d *Beta) WalkState(words *[]uint64) { *words = append(*words, uint64(d.chunk)) }
