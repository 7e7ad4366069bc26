package interp

import (
	"testing"

	"diode/internal/lang"
)

// TestStoreLoopStaysFastPastDensePrefix pins the bulk store loop's fast path
// itself, not only its semantics: one runStoreLoop call over Figure 2's
// png_memset row fill (Ult(Mul(i, 64), rowbytes), stride 64) on a block far
// larger than the dense prefix must run every iteration, dense and far, in
// that one call. A fast path that bailed at the first far cell would leave
// the induction variable at 64 and hand each later iteration to the generic
// lowering.
func TestStoreLoopStaysFastPastDensePrefix(t *testing.T) {
	const rowbytes = 1 << 20
	prog := lang.NewProgram("png_memset")
	prog.AddFunc(lang.Fn("main", nil,
		lang.Let("rowbytes", lang.U32(rowbytes)),
		lang.AllocAt("row", "t@1", lang.Add(lang.V("rowbytes"), lang.U32(1))),
		lang.Let("i", lang.U32(0)),
		lang.Loop("png_memset", lang.Ult(lang.Mul(lang.V("i"), lang.U32(64)), lang.V("rowbytes")),
			lang.Put(lang.V("row"), lang.ZX(64, lang.Mul(lang.V("i"), lang.U32(64))), lang.U8(0xAB)),
			lang.Let("i", lang.Add(lang.V("i"), lang.U32(1))),
		),
	))
	if err := prog.Finalize(); err != nil {
		t.Fatal(err)
	}
	code := Compile(prog)
	if len(code.main.loops) != 1 {
		t.Fatalf("png_memset loop not fused: %d bulk loops", len(code.main.loops))
	}
	lp := &code.main.loops[0]
	if lp.ptrGlobal || lp.ivGlobal || lp.condB.global {
		t.Fatal("loop variables unexpectedly global")
	}

	// Set up the frame exactly as main reaches the loop head.
	m := NewMachine(code)
	m.Reset(nil, Options{})
	fr := m.pushFrame(code.main)
	m.nextID++
	ptr := m.nextID << 32
	b := m.newBlock("t@1", rowbytes+1)
	m.blocks[ptr] = b
	set := func(slot int32, v value) { fr.vals[slot], fr.set[slot] = v, true }
	set(lp.ptrSlot, value{v: ptr, w: 64})
	set(lp.condB.slot, value{v: rowbytes, w: 32})
	set(lp.ivSlot, value{v: 0, w: 32})

	fuel := m.fuel
	m.runStoreLoop(fr, lp)

	const trips = rowbytes / 64
	if got := fr.vals[lp.ivSlot].v; got != trips {
		t.Fatalf("one runStoreLoop call ran %d of %d iterations; the fast path bailed", got, trips)
	}
	if got, want := fuel-m.fuel, int64(trips)*lp.perIter; got != want {
		t.Errorf("fuel charged = %d, want %d (%d iterations × %d)", got, want, trips, lp.perIter)
	}
	dense := uint64(len(b.dense))
	if got, want := len(b.far.plainLog), int(trips-(dense+63)/64); got != want {
		t.Errorf("far plain log holds %d writes, want %d", got, want)
	}
	for _, off := range []uint64{0, dense - 64, dense, rowbytes - 64} {
		if v := b.loadCell(off); v.v != 0xAB || v.w != 8 {
			t.Errorf("cell %d = %+v, want 0xAB/8", off, v)
		}
	}
}
