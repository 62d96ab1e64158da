package retcon_test

import (
	"testing"

	retcon "repro"
	"repro/internal/telemetry"
)

// These tests pin the paper's qualitative results (the "shape" of Figure
// 9) so that simulator or workload changes that break the reproduction
// fail in CI rather than only in the benchmark output. Thresholds are
// deliberately loose: they assert who wins and by a safe margin, not
// exact factors.

func runCycles(t *testing.T, name string, mode retcon.Mode, cores int) int64 {
	t.Helper()
	res, err := retcon.RunNamed(name, cfg(cores, mode))
	if err != nil {
		t.Fatalf("%s/%v: %v", name, mode, err)
	}
	return res.Cycles
}

// TestShapeRetconRepairsAuxiliaryData: on the -sz variants and python_opt
// (auxiliary-data conflicts), RETCON must beat the eager baseline by at
// least 2x.
func TestShapeRetconRepairsAuxiliaryData(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	for _, name := range []string{"genome-sz", "intruder_opt-sz", "python_opt"} {
		eager := runCycles(t, name, retcon.ModeEager, 16)
		rc := runCycles(t, name, retcon.ModeRetCon, 16)
		if rc*2 > eager {
			t.Errorf("%s: RETCON %d cycles vs eager %d — want >=2x improvement", name, rc, eager)
		}
	}
}

// TestShapeRetconCannotRepairAddresses: where contended values feed
// address computation (yada, unmodified intruder and python), RETCON must
// NOT change the picture materially (within 40% of eager).
func TestShapeRetconCannotRepairAddresses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	for _, name := range []string{"yada", "python"} {
		eager := runCycles(t, name, retcon.ModeEager, 16)
		rc := runCycles(t, name, retcon.ModeRetCon, 16)
		ratio := float64(eager) / float64(rc)
		if ratio > 1.7 {
			t.Errorf("%s: RETCON improved runtime %.2fx — the paper says repair cannot help here", name, ratio)
		}
		if ratio < 0.6 {
			t.Errorf("%s: RETCON regressed runtime %.2fx", name, 1/ratio)
		}
	}
}

// TestShapeSzRecoversFixedSize: with RETCON, the resizable-table variant
// must land within 2.5x of its fixed-size sibling (the paper: "the
// addition of RETCON makes them insensitive to whether the hashtable is
// fixed-size or resizable"). Under eager the gap must be large (>3x).
func TestShapeSzRecoversFixedSize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	fixedEager := runCycles(t, "genome", retcon.ModeEager, 16)
	szEager := runCycles(t, "genome-sz", retcon.ModeEager, 16)
	szRetcon := runCycles(t, "genome-sz", retcon.ModeRetCon, 16)
	if szEager < 3*fixedEager {
		t.Errorf("eager: genome-sz (%d) should be >3x slower than genome (%d)", szEager, fixedEager)
	}
	if szRetcon > 5*fixedEager/2 {
		t.Errorf("RETCON: genome-sz (%d) should be within 2.5x of genome (%d)", szRetcon, fixedEager)
	}
}

// TestShapeSoftwareRestructurings: the paper's Figure 3 story — the _opt
// restructurings transform intruder and vacation under the plain eager
// baseline.
func TestShapeSoftwareRestructurings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	if base, opt := runCycles(t, "intruder", retcon.ModeEager, 16), runCycles(t, "intruder_opt", retcon.ModeEager, 16); opt*4 > base {
		t.Errorf("intruder_opt (%d) should be >=4x faster than intruder (%d) under eager", opt, base)
	}
	if base, opt := runCycles(t, "vacation", retcon.ModeEager, 16), runCycles(t, "vacation_opt", retcon.ModeEager, 16); opt*3 > base {
		t.Errorf("vacation_opt (%d) should be >=3x faster than vacation (%d) under eager", opt, base)
	}
}

// TestShapeLazyVBBetweenEagerAndRetcon: on the -sz variants, value-based
// validation must land between the eager baseline and full RETCON.
func TestShapeLazyVBBetweenEagerAndRetcon(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	for _, name := range []string{"genome-sz", "intruder_opt-sz"} {
		eager := runCycles(t, name, retcon.ModeEager, 16)
		lazy := runCycles(t, name, retcon.ModeLazyVB, 16)
		rc := runCycles(t, name, retcon.ModeRetCon, 16)
		if !(lazy < eager) {
			t.Errorf("%s: lazy-vb (%d) must beat eager (%d)", name, lazy, eager)
		}
		if !(rc < lazy) {
			t.Errorf("%s: RETCON (%d) must beat lazy-vb (%d)", name, rc, lazy)
		}
	}
}

// TestShapeStructuresStaySmall: on every paper workload the Table 1
// structure sizes must suffice — no structure-overflow aborts, no
// speculative-metadata overflows (the paper's Table 3 point).
func TestShapeStructuresStaySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload 16-core simulations")
	}
	for _, w := range retcon.Workloads() {
		res, err := retcon.Run(w, cfg(16, retcon.ModeRetCon))
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if res.Sim.Metrics.AbortCause[telemetry.CauseSpecOverflow] != 0 {
			t.Errorf("%s: speculative-metadata overflow", w.Name())
		}
		t3 := res.Sim.Table3()
		if t3.MaxTracked > 16 || t3.MaxConstraints > 16 || t3.MaxStores > 32 {
			t.Errorf("%s: structure maxima exceed Table 1 sizes: tracked %.0f constraints %.0f stores %.0f",
				w.Name(), t3.MaxTracked, t3.MaxConstraints, t3.MaxStores)
		}
	}
}
