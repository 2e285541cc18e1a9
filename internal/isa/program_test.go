package isa

import (
	"fmt"
	"reflect"
	"testing"
)

// chunkEdges lists the indices below n at which the Builder starts a
// new chunk: chunk sizes double from firstChunk and stop at maxChunk.
func chunkEdges(n int) []int {
	var edges []int
	for at, size := firstChunk, firstChunk; at < n; at += size {
		edges = append(edges, at)
		size = min(2*size, maxChunk)
	}
	return edges
}

// TestBuilderChunkBoundaries emits programs whose lengths straddle the
// Builder's chunk sizes and compares what Build returns with a flat
// reference. Every chunk edge carries a label; the instruction before
// an edge branches forward to it and the one at an edge jumps back to
// the previous edge, so each fixup and its target lie in different
// chunks.
func TestBuilderChunkBoundaries(t *testing.T) {
	lengths := []int{
		0, 1,
		firstChunk - 1, firstChunk, firstChunk + 1,
		maxChunk - 1, maxChunk, maxChunk + 1,
		3*maxChunk + 7,
	}
	for _, n := range lengths {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			edges := map[int]bool{}
			for _, e := range chunkEdges(n) {
				edges[e] = true
			}
			b := NewBuilder()
			var (
				ref     []Instruction
				refInit []MemInit
				fixups  = map[int]string{}
				labels  = map[string]int{}
			)
			label := func(name string) {
				b.Label(name)
				labels[name] = len(ref)
			}
			prev := "start"
			label(prev)
			for i := 0; i < n; i++ {
				if edges[i] {
					label(fmt.Sprintf("edge%d", i))
				}
				var in Instruction
				switch {
				case i == n-1:
					b.Halt()
					in = Instruction{Op: OpHalt}
				case edges[i+1]:
					b.Beq(R(1), R(2), fmt.Sprintf("edge%d", i+1))
					in = Instruction{Op: OpBeq, Src1: R(1), Src2: R(2)}
					fixups[i] = fmt.Sprintf("edge%d", i+1)
				case edges[i]:
					b.Jmp(prev)
					in = Instruction{Op: OpJmp}
					fixups[i] = prev
					prev = fmt.Sprintf("edge%d", i)
				default:
					b.AddI(R(1), R(1), int64(i))
					in = Instruction{Op: OpAddI, Dst: R(1), Src1: R(1), Imm: int64(i)}
				}
				ref = append(ref, in)
				if i%1000 == 3 {
					b.InitWord(uint64(8*i), uint64(i))
					refInit = append(refInit, MemInit{Addr: uint64(8 * i), Data: uint64(i)})
				}
				if got := b.Len(); got != i+1 {
					t.Fatalf("Len() = %d after %d emits", got, i+1)
				}
			}
			label("end")

			p, err := b.Build()
			if n == 0 {
				if err == nil {
					t.Fatal("Build accepted an empty program")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for idx, name := range fixups {
				ref[idx].Imm = int64(labels[name])
			}
			if !reflect.DeepEqual(p.Code, ref) {
				t.Error("Code differs from the flat reference")
			}
			if !reflect.DeepEqual(p.Init, refInit) {
				t.Errorf("Init = %v, want %v", p.Init, refInit)
			}
			if !reflect.DeepEqual(p.Labels, labels) {
				t.Errorf("Labels = %v, want %v", p.Labels, labels)
			}
			if len(p.Code) != cap(p.Code) {
				t.Errorf("Code has cap %d for %d instructions", cap(p.Code), len(p.Code))
			}
		})
	}
}
