package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"snic/internal/sim"
)

// TestNextPacketBufMatchesNextPacket pins the buffer-reusing variant to
// the allocating one.
func TestNextPacketBufMatchesNextPacket(t *testing.T) {
	tmpl := NewICTFTemplate(sim.NewRand(23), 100)
	a, b := tmpl.Pool(), tmpl.Pool()
	for i := 0; i < 1000; i++ {
		l := IMIXLen(sim.NewRand(uint64(i + 1)))
		ai, ap := a.NextPacket(l)
		bi, bp := b.NextPacketBuf(l)
		if ai != bi || ap.Tuple != bp.Tuple || !bytes.Equal(ap.Payload, bp.Payload) {
			t.Fatalf("draw %d diverges", i)
		}
	}
}

// TestCAIDACursorResume resumes a budget stream mid-flow (the cursor
// carries the in-flight tuple and its remaining repeats).
func TestCAIDACursorResume(t *testing.T) {
	mk := func() *CAIDAStream { return NewCAIDABudget(sim.NewRand(25), 500, 3) }
	full := mk()
	cut := 700 // not a multiple of perFlow: cuts inside a flow
	var cur Cursor
	type rec struct {
		idx int
		tup [16]byte
	}
	var want []rec
	for i := 0; ; i++ {
		if i == cut {
			cur = full.Cursor()
		}
		idx, p, ok := full.Next()
		if !ok {
			break
		}
		if i >= cut {
			want = append(want, rec{idx, p.Tuple.Key()})
		}
	}

	raw, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Cursor
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	resumed := mk()
	if err := resumed.Seek(decoded); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		idx, p, ok := resumed.Next()
		if !ok {
			t.Fatalf("resumed exhausted at %d", i)
		}
		if idx != w.idx || p.Tuple.Key() != w.tup {
			t.Fatalf("resumed packet %d diverges", i)
		}
	}
	if _, _, ok := resumed.Next(); ok {
		t.Fatal("resumed stream overran the budget")
	}
	if resumed.TotalFlows() != full.TotalFlows() || resumed.Pos() != full.Pos() {
		t.Fatal("resumed counters diverge")
	}
}

func TestCursorKindMismatch(t *testing.T) {
	cs := NewCAIDABudget(sim.NewRand(26), 10, 1)
	if err := cs.Seek(makeCursor("pool", 0, struct{}{})); err == nil {
		t.Fatal("caida stream accepted a pool cursor")
	}
	bad := cs.Cursor()
	bad.Version = 99
	if err := cs.Seek(bad); err == nil {
		t.Fatal("accepted unknown cursor version")
	}
}

// TestCAIDASeekRejects covers each way a cursor can fail to fit the
// stream it is applied to: another horizon, or counters that Next cannot
// reach. Every rejection leaves the stream exactly where it was.
func TestCAIDASeekRejects(t *testing.T) {
	src := NewCAIDABudget(sim.NewRand(28), 40, 5)
	for i := 0; i < 17; i++ {
		src.Next()
	}
	good := decodeCAIDA(t, src.Cursor())
	cases := map[string]func(*caidaCursor, *uint64){
		"other budget":       func(c *caidaCursor, _ *uint64) { c.Target = 41 },
		"other per-flow":     func(c *caidaCursor, _ *uint64) { c.PerFlow = 4 },
		"other elapsed":      func(c *caidaCursor, _ *uint64) { c.Elapsed = 1 },
		"flows past horizon": func(c *caidaCursor, _ *uint64) { c.TotalFlows = 41 },
		"negative remaining": func(c *caidaCursor, _ *uint64) { c.Remaining = -1 },
		"remaining too big":  func(c *caidaCursor, _ *uint64) { c.Remaining = 6 },
		"stale flow index":   func(c *caidaCursor, _ *uint64) { c.CurIdx = 1 },
		"negative index":     func(c *caidaCursor, _ *uint64) { c.CurIdx = -1 },
		"flow before start":  func(c *caidaCursor, _ *uint64) { c.TotalFlows, c.CurIdx, c.Remaining = 0, 2, 0 },
		"pos behind flows":   func(_ *caidaCursor, pos *uint64) { *pos = 3 },
		"pos off its flow":   func(_ *caidaCursor, pos *uint64) { *pos++ },
		"remaining off pos":  func(c *caidaCursor, _ *uint64) { c.Remaining-- },
		"no packet in flight": func(c *caidaCursor, pos *uint64) {
			c.Remaining = c.PerFlow
			*pos = (c.TotalFlows - 1) * uint64(c.PerFlow)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			dst := NewCAIDABudget(sim.NewRand(29), 40, 5)
			dst.Next()
			before := dst.Cursor()
			cc, pos := good, src.Pos()
			mutate(&cc, &pos)
			if err := dst.Seek(makeCursor("caida", pos, cc)); err == nil {
				t.Fatal("accepted")
			}
			if after := dst.Cursor(); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected cursor moved the stream:\n%+v\n%+v", before, after)
			}
		})
	}
	dst := NewCAIDABudget(sim.NewRand(29), 40, 5)
	if err := dst.Seek(src.Cursor()); err != nil {
		t.Fatalf("unmutated cursor rejected: %v", err)
	}
}

func decodeCAIDA(t *testing.T, c Cursor) caidaCursor {
	t.Helper()
	var cc caidaCursor
	if err := json.Unmarshal(c.Data, &cc); err != nil {
		t.Fatal(err)
	}
	return cc
}

// FuzzCAIDASeek feeds arbitrary cursors to a budget stream part-way
// through a flow; its seed corpus is testdata/fuzz/FuzzCAIDASeek. A rejected cursor must leave the stream unchanged, and
// after any Seek, Next must neither panic nor run past the horizon.
func FuzzCAIDASeek(f *testing.F) {
	f.Fuzz(func(t *testing.T, version int, kind string, pos uint64, data []byte) {
		st := NewCAIDABudget(sim.NewRand(30), 30, 4)
		for i := 0; i < 6; i++ {
			st.Next()
		}
		before := st.Cursor()
		err := st.Seek(Cursor{Version: version, Kind: kind, Pos: pos, Data: data})
		if err != nil {
			if after := st.Cursor(); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected cursor moved the stream: %v", err)
			}
		}
		// 30 flows of 4 packets: no valid position has more left.
		for n := 0; ; n++ {
			if _, _, ok := st.Next(); !ok {
				break
			}
			if n > 30*4 {
				t.Fatal("Next ran past the horizon")
			}
		}
		if st.TotalFlows() > 30 {
			t.Fatalf("%d flows from a 30-flow budget", st.TotalFlows())
		}
	})
}
