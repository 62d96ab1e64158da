package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// replayFixture is a one-core machine whose one transaction adds 5 to
// word a and 7 to word b, then clears r1, so a's committed value lives
// only in memory. Word c lies outside the transaction.
type replayFixture struct {
	m       *sim.Machine
	a, b, c int64
}

const fixtureEndPC = 9 // the HALT after the fixture's TXCOMMIT

func newReplayFixture(t *testing.T) *replayFixture {
	t.Helper()
	img := mem.NewImage()
	f := &replayFixture{a: img.AllocBlocks(mem.WordSize), b: img.AllocBlocks(mem.WordSize), c: img.AllocBlocks(mem.WordSize)}
	img.Write64(f.a, 100)
	img.Write64(f.b, 200)
	img.Write64(f.c, 300)
	bd := isa.NewBuilder("replay-fixture")
	bd.TxBegin()
	bd.Ld(1, isa.Zero, f.a, 8)
	bd.Addi(1, 1, 5)
	bd.St(1, isa.Zero, f.a, 8)
	bd.Ld(2, isa.Zero, f.b, 8)
	bd.Addi(2, 2, 7)
	bd.St(2, isa.Zero, f.b, 8)
	bd.Li(1, 0)
	bd.TxCommit()
	bd.Halt()
	p := sim.DefaultParams()
	p.Cores = 1
	p.Mode = sim.Eager
	m, err := sim.New(p, img, []*isa.Program{bd.MustAssemble()})
	if err != nil {
		t.Fatal(err)
	}
	f.m = m
	return f
}

// run installs the replay oracle behind an observer that first applies
// corrupt to the committed state, and returns the commit cycle and the
// run's error.
func (f *replayFixture) run(corrupt func(m *sim.Machine, c *sim.Core)) (int64, error) {
	oracle := ReplayOracle()
	var at int64
	f.m.OnCommit(func(m *sim.Machine, c *sim.Core) error {
		at = m.Now
		corrupt(m, c)
		return oracle(m, c)
	})
	_, err := f.m.Run()
	return at, err
}

// TestReplayOracleFires corrupts one piece of committed state at the
// commit instant and requires the replay oracle's exact report.
func TestReplayOracleFires(t *testing.T) {
	undoOf := func(c *sim.Core, word int64) *htm.UndoEntry {
		for i := range c.Tx.Undo {
			if mem.WordAddr(c.Tx.Undo[i].Addr) == word {
				return &c.Tx.Undo[i]
			}
		}
		t.Fatalf("no undo entry for word %#x", word)
		return nil
	}
	for _, tc := range []struct {
		name    string
		corrupt func(f *replayFixture, m *sim.Machine, c *sim.Core)
		want    func(f *replayFixture) string // after "core 0 t=<commit cycle>: "
	}{
		{
			name:    "committed register",
			corrupt: func(f *replayFixture, m *sim.Machine, c *sim.Core) { c.Regs[2]++ },
			want:    func(*replayFixture) string { return "r2 = 208 committed, 207 replayed" },
		},
		{
			name:    "stored word",
			corrupt: func(f *replayFixture, m *sim.Machine, c *sim.Core) { m.Mem.Write64(f.b, 1) },
			want:    func(f *replayFixture) string { return fmt.Sprintf("word %#x = 1 committed, 207 replayed", f.b) },
		},
		{
			// The replay reads a's pre-transaction value back out of the
			// undo log, so a wrong logged value shows in a's replayed store.
			name:    "pre-value reconstructed from the undo log",
			corrupt: func(f *replayFixture, m *sim.Machine, c *sim.Core) { undoOf(c, f.a).Old += 10 },
			want:    func(f *replayFixture) string { return fmt.Sprintf("word %#x = 105 committed, 115 replayed", f.a) },
		},
		{
			// A word in the undo log that the replay never stores must
			// read back as its reconstructed pre-transaction value.
			name: "word only the transaction stored",
			corrupt: func(f *replayFixture, m *sim.Machine, c *sim.Core) {
				c.Tx.Undo = append(c.Tx.Undo, htm.UndoEntry{Addr: f.c, Size: 8, Old: 42})
			},
			want: func(f *replayFixture) string { return fmt.Sprintf("word %#x = 300 committed, 42 replayed", f.c) },
		},
		{
			name:    "committed PC",
			corrupt: func(f *replayFixture, m *sim.Machine, c *sim.Core) { c.PC++ },
			want: func(*replayFixture) string {
				return fmt.Sprintf("committed PC %d, replay ends at %d", fixtureEndPC+1, fixtureEndPC)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newReplayFixture(t)
			at, err := f.run(func(m *sim.Machine, c *sim.Core) { tc.corrupt(f, m, c) })
			want := fmt.Sprintf("replay divergence: core 0 t=%d: %s", at, tc.want(f))
			if err == nil || err.Error() != want {
				t.Errorf("run error %v, want %q", err, want)
			}
		})
	}

	// With two stored words wrong, the report names the first in store
	// order, on every run.
	t.Run("two words, same report every run", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			f := newReplayFixture(t)
			at, err := f.run(func(m *sim.Machine, c *sim.Core) {
				m.Mem.Write64(f.b, 1)
				m.Mem.Write64(f.a, 2)
			})
			want := fmt.Sprintf("replay divergence: core 0 t=%d: word %#x = 2 committed, 105 replayed", at, f.a)
			if err == nil || err.Error() != want {
				t.Fatalf("run %d: error %v, want %q", i, err, want)
			}
		}
	})
}
