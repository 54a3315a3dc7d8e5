package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// quickCfg is shared across the runner tests; Quick() keeps every run in
// the tens of milliseconds while preserving the qualitative shapes.
var quickCfg = Quick()

// seriesYs extracts the y values of a named series.
func seriesYs(t *testing.T, fig *Figure, name string) []float64 {
	t.Helper()
	s := fig.Get(name)
	if s == nil {
		t.Fatalf("figure %s has no series %q (have %v)", fig.ID, name, seriesNames(fig.Series))
	}
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// checkCSV pins a figure or table that does not depend on timing: the
// analytic values and the access counts, clear rates, correctness
// rates and FP rates of a seeded run are deterministic, so the sha256
// of its CSV must equal want. A probe or update rewrite that moves one
// value (one access of one query) fails here. Update want only for a
// deliberate change of what a figure measures.
func checkCSV(t *testing.T, fig interface{ WriteCSV(io.Writer) error }, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("CSV sha256 %s, want %s:\n%s", got, want, buf.String())
	}
}

func TestRunFig3(t *testing.T) {
	figs := RunFig3(quickCfg)
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "e9b72c761639ae3496f0a14c7f55781f64242d70601b36007d260cd03609c545")
	checkCSV(t, figs[1], "d004100fc539199310cabc0109337f2c8d465a48ba8f551c3d88695c02a2b2fb")
	// Shape: ShBF FPR decreasing in w̄ and converging to the BF line.
	sh := seriesYs(t, figs[0], "ShBF_M k=8")
	bf := seriesYs(t, figs[0], "BF k=8")
	if sh[0] < sh[len(sh)-1] {
		t.Fatal("ShBF FPR not decreasing in w̄")
	}
	gap := (sh[len(sh)-1] - bf[len(bf)-1]) / bf[len(bf)-1]
	if gap > 0.05 {
		t.Fatalf("at max w̄ the gap to BF is %.3f, want <5%%", gap)
	}
}

func TestRunFig4(t *testing.T) {
	figs := RunFig4(quickCfg)
	fig := figs[0]
	checkCSV(t, fig, "e05b5c2a0f95e4e49696155d0a6faff9dcc04e884a4fd2343c8dd69fd17b3c0f")
	// Shape: for every n, ShBF_M within a few percent of BF at every k.
	for _, n := range []string{"4000", "8000", "12000"} {
		sh := seriesYs(t, fig, "ShBF_M n="+n)
		bf := seriesYs(t, fig, "BF n="+n)
		for i := range sh {
			if bf[i] == 0 {
				continue
			}
			if (sh[i]-bf[i])/bf[i] > 0.2 {
				t.Fatalf("n=%s point %d: ShBF %.4g vs BF %.4g", n, i, sh[i], bf[i])
			}
		}
	}
}

func TestRunFig7(t *testing.T) {
	figs := RunFig7(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "3c0fcfa21ead59d14b1360e3777f2a1a2a5c0568ae1881728beccaaecd8e42ad")
	checkCSV(t, figs[1], "7c2722606c3fe5307e9233781e26631cf2d6d915087e1c52a53468a5c138be85")
	checkCSV(t, figs[2], "4b65cdf7c9272b4285f6bc9ef6518098ac4f5cac2c6ad5dfd765fdd81795814f")
	for _, fig := range figs {
		theory := seriesYs(t, fig, "ShBF_M theory")
		sim := seriesYs(t, fig, "ShBF_M sim")
		om := seriesYs(t, fig, "1MemBF (m)")
		for i := range theory {
			// Sim within a factor of theory (small probe counts here).
			if theory[i] > 1e-4 && (sim[i] > 2.2*theory[i] || sim[i] < theory[i]/2.2) {
				t.Fatalf("fig %s point %d: sim %.5g vs theory %.5g", fig.ID, i, sim[i], theory[i])
			}
			// The paper's headline: 1MemBF has a multiple of ShBF's FPR.
			if theory[i] > 1e-4 && om[i] < sim[i] {
				t.Fatalf("fig %s point %d: 1MemBF FPR %.5g below ShBF %.5g", fig.ID, i, om[i], sim[i])
			}
		}
	}
}

func TestRunFig8(t *testing.T) {
	figs := RunFig8(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "aed2d992f6cdd874dce2da252e8c88fe9100af514de7faf3eeec144af09fe784")
	checkCSV(t, figs[1], "2fcd17ad43e92584134f9f4427e5e61e49c1bad5fdb0d60377e1bd2485d75baa")
	checkCSV(t, figs[2], "57b09fa7d000b2a192ccf684858778f3a5e0eed0e4f87754a3b0fd2a741321d3")
	for _, fig := range figs {
		bf := seriesYs(t, fig, "BF")
		sh := seriesYs(t, fig, "ShBF_M")
		for i := range bf {
			ratio := sh[i] / bf[i]
			// Figure 8: ShBF_M uses about half the accesses.
			if ratio > 0.75 {
				t.Fatalf("fig %s point %d: access ratio %.2f, want ≈0.5", fig.ID, i, ratio)
			}
		}
		// Measurements track the analytic expectation.
		bfTheory := seriesYs(t, fig, "BF theory")
		for i := range bf {
			if bf[i] > 1.3*bfTheory[i] || bf[i] < 0.7*bfTheory[i] {
				t.Fatalf("fig %s point %d: BF accesses %.2f vs theory %.2f", fig.ID, i, bf[i], bfTheory[i])
			}
		}
	}
}

func TestRunFig9(t *testing.T) {
	figs := RunFig9(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	// Figure 9's headline in the paper — ShBF_M fastest at every point —
	// was driven by hash-computation cost (k/2+1 full passes vs k). The
	// one-pass digest pipeline (PR 3) removed that cost for every scheme:
	// all of them now scan the key once and differ only in integer mixes
	// and memory accesses, so the wall-clock ordering compresses to a
	// near-tie (see EXPERIMENTS.md, "Hash-cost model"). What must still
	// hold is that ShBF_M is not materially slower than BF: its k/2
	// window reads keep it at or under BF's k bit probes.
	for _, fig := range figs {
		bf := seriesYs(t, fig, "BF")
		sh := seriesYs(t, fig, "ShBF_M")
		materiallySlower := 0
		for i := range bf {
			if sh[i] < 0.7*bf[i] {
				materiallySlower++
			}
		}
		// Timing noise at Quick scale (and CI contention): the trend must
		// hold, but isolated inversions are expected.
		if materiallySlower > len(bf)/2 {
			t.Fatalf("fig %s: ShBF_M materially slower than BF at %d/%d points",
				fig.ID, materiallySlower, len(bf))
		}
	}
}

func TestRunFig10(t *testing.T) {
	figs := RunFig10(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "797726e78f486b373c2f4fabe57fca2e7043ea306cfd9a65ea8583cf50ecd42e")
	checkCSV(t, figs[1], "7485194c0f4303b3a3aa5d2baf87a451ffc03098482305e70fd3443b759938dc")
	clearI := seriesYs(t, figs[0], "iBF sim")
	clearIT := seriesYs(t, figs[0], "iBF theory")
	clearS := seriesYs(t, figs[0], "ShBF_A sim")
	clearST := seriesYs(t, figs[0], "ShBF_A theory")
	for i := range clearI {
		// Sim matches theory (the paper reports ≤0.7% error).
		if d := clearI[i] - clearIT[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("iBF sim %.4f vs theory %.4f at point %d", clearI[i], clearIT[i], i)
		}
		if d := clearS[i] - clearST[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("ShBF_A sim %.4f vs theory %.4f at point %d", clearS[i], clearST[i], i)
		}
		// ShBF_A always clears more often.
		if clearS[i] <= clearI[i] {
			t.Fatalf("point %d: ShBF_A clear %.4f not above iBF %.4f", i, clearS[i], clearI[i])
		}
	}
	// Accesses: ShBF_A ≈ 0.66× iBF.
	accI := seriesYs(t, figs[1], "iBF")
	accS := seriesYs(t, figs[1], "ShBF_A")
	for i := range accI {
		if r := accS[i] / accI[i]; r > 0.85 {
			t.Fatalf("point %d: access ratio %.2f, want ≈0.66", i, r)
		}
	}
}

func TestRunTable2(t *testing.T) {
	tab := RunTable2(quickCfg)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	checkCSV(t, tab, "ccdc097cbe4ae06c38439592e2371fbd3ed8a5ee17265012cd080604dd0ca54c")
	if tab.Rows[0][0] != "iBF" || tab.Rows[1][0] != "ShBF_A" {
		t.Fatalf("unexpected schemes: %v / %v", tab.Rows[0][0], tab.Rows[1][0])
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ShBF_A") {
		t.Fatal("render missing scheme name")
	}
}

func TestRunFig11(t *testing.T) {
	figs := RunFig11(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "4d8aa7466adacb4432c53ea0bb76ae79d04d6907b3544175febf22d6fdc4df45")
	checkCSV(t, figs[1], "ec82ba14bc9071de7e6df43dcc1f9a3d1bf96bd08bb1e457dfe6047e4b65aede")
	crT := seriesYs(t, figs[0], "ShBF_X theory")
	crS := seriesYs(t, figs[0], "ShBF_X sim")
	crSp := seriesYs(t, figs[0], "Spectral BF")
	for i := range crS {
		if d := crS[i] - crT[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("point %d: ShBF_X CR sim %.4f vs theory %.4f", i, crS[i], crT[i])
		}
		// The paper's headline: ShBF_X has a materially higher CR.
		if crS[i] <= crSp[i] {
			t.Fatalf("point %d: ShBF_X CR %.4f not above Spectral %.4f", i, crS[i], crSp[i])
		}
	}
	// Accesses at large k: ShBF_X below Spectral (crossover ≈ k=7).
	accSp := figs[1].Get("Spectral BF").Points
	accSh := figs[1].Get("ShBF_X").Points
	var spAt16, shAt16 float64
	for i := range accSp {
		if accSp[i].X == 16 {
			spAt16 = accSp[i].Y
			shAt16 = accSh[i].Y
		}
	}
	if shAt16 >= spAt16 {
		t.Fatalf("k=16: ShBF_X accesses %.2f not below Spectral %.2f", shAt16, spAt16)
	}
}

func TestRunExtensions(t *testing.T) {
	gen := RunGeneralAblation(quickCfg)
	if len(gen) != 2 {
		t.Fatalf("general ablation: %d figures", len(gen))
	}
	checkCSV(t, gen[0], "d03e63ab0a224a4bd91bbac80f479a49711a782dbd848f28a0262e97a7370ede")
	checkCSV(t, gen[1], "be8ac25307f186b8b6ecfd2478e0e9d16db890525f9da4bd8b906b8cf4f58f65")
	sim := seriesYs(t, gen[0], "t-shift sim")
	theory := seriesYs(t, gen[0], "t-shift theory")
	for i := range sim {
		// Only points with ≥ ~15 expected false positives carry enough
		// statistics for a factor-3 two-sided check; below that the
		// Poisson noise alone violates it with non-trivial probability.
		if theory[i]*float64(quickCfg.Probes) >= 15 && (sim[i] > 3*theory[i] || sim[i] < theory[i]/3) {
			t.Fatalf("t-shift point %d: sim %.5g vs theory %.5g", i, sim[i], theory[i])
		}
	}

	scm := RunSCMAblation(quickCfg)
	checkCSV(t, scm[0], "5f51baaa8bb50b6971f2502d41e0917b45717fd8b6415a3f18517aa0766082de")
	errCM := seriesYs(t, scm[0], "CM sketch")
	errSCM := seriesYs(t, scm[0], "SCM sketch")
	spCM := seriesYs(t, scm[1], "CM sketch")
	spSCM := seriesYs(t, scm[1], "SCM sketch")
	slower := 0
	for i := range errCM {
		if errCM[i] < 0 || errSCM[i] < 0 {
			t.Fatal("count-min style sketches cannot underestimate")
		}
		// Section 5.5's trade: accuracy stays in the same regime at
		// equal memory…
		if errSCM[i] > 3.5*errCM[i]+0.5 {
			t.Fatalf("point %d: SCM error %.3f vs CM %.3f — not equal-memory comparable", i, errSCM[i], errCM[i])
		}
		// …while queries get faster (allow isolated timing inversions).
		if spSCM[i] <= spCM[i] {
			slower++
		}
	}
	// Timing under CI contention is noisy; only a systematic inversion
	// (most points) fails.
	if slower > len(spCM)/2 {
		t.Fatalf("SCM slower than CM at %d/%d points", slower, len(spCM))
	}

	upd := RunUpdateAblation(quickCfg)
	checkCSV(t, upd[0], "dda4d60fdcaa63f142f58b48b5ae876377669d9bbf87f2457f3e511b3b0bbd39")
	safe := seriesYs(t, upd[0], "safe (5.3.2)")
	for i, v := range safe {
		if v != 0 {
			t.Fatalf("safe update mode produced false negatives at point %d: %v", i, v)
		}
	}

	zoo := RunMembershipZoo(quickCfg)
	if len(zoo) != 2 {
		t.Fatalf("zoo: %d figures", len(zoo))
	}
	checkCSV(t, zoo[0], "9baa646cf56d82ca6100244d3cfaa33991900c764801ac459d938b9f0c76dc14")
}

func TestRunMultiSetAblation(t *testing.T) {
	figs := RunMultiSetAblation(quickCfg)
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "79d6e01c94d900ddaf088bc447cd710e0c7d05bbfa938b1445f3228a42197ed5")
	checkCSV(t, figs[1], "e46e020848c815c136da0a1ad47b552e425d3825c12b575e4f1d4e33b07c4971")
	checkCSV(t, figs[2], "bf2b0450f70c9a896ba141db6f8b735212377d7476a6acce43c0cb995d93aa9b")
	// Disjoint clear rate: matches the (1−0.5^k)^{R−1} theory; CodedBF
	// is competitive in this regime (its weaknesses are accesses and
	// overlap, asserted below).
	multi := seriesYs(t, figs[0], "MultiShBF_A")
	theory := seriesYs(t, figs[0], "MultiShBF_A theory")
	for i := range multi {
		if d := multi[i] - theory[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("point %d: multi clear %.4f vs theory %.4f", i, multi[i], theory[i])
		}
	}
	// Accesses: k windows vs CodedBF's ⌈log2(g+1)⌉ filters of k probes.
	accMulti := seriesYs(t, figs[1], "MultiShBF_A")
	accCoded := seriesYs(t, figs[1], "CodedBF")
	for i := range accMulti {
		if accMulti[i] >= accCoded[i] {
			t.Fatalf("point %d: MultiShBF_A accesses %.2f not below CodedBF %.2f", i, accMulti[i], accCoded[i])
		}
	}
	// Overlap: the framework stays sound; CodedBF misclassifies nearly
	// everything shared.
	wrongMulti := seriesYs(t, figs[2], "MultiShBF_A")
	wrongCoded := seriesYs(t, figs[2], "CodedBF")
	for i := range wrongMulti {
		if wrongMulti[i] != 0 {
			t.Fatalf("point %d: MultiShBF_A unsound rate %v", i, wrongMulti[i])
		}
		if wrongCoded[i] < 0.9 {
			t.Fatalf("point %d: CodedBF misclassified only %.2f of shared elements", i, wrongCoded[i])
		}
	}
}

func TestRunSkewAblation(t *testing.T) {
	figs := RunSkewAblation(quickCfg)
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "be0a0d36305065cb29d56d1a6658e860098d8f583a3881e3f7b4a6b42b57a8f7")
	checkCSV(t, figs[1], "257234060a18094348f941ec460d1cea0497de9924a7e82163213c0ad3ce6a0d")
	sh := seriesYs(t, figs[0], "ShBF_X")
	sp := seriesYs(t, figs[0], "Spectral BF")
	// ShBF_X stays accurate at every skew and beats the counter scheme.
	for i := range sh {
		if sh[i] < 0.9 {
			t.Fatalf("point %d: ShBF_X CR %.3f dropped under skew", i, sh[i])
		}
		if sh[i] <= sp[i] {
			t.Fatalf("point %d: ShBF_X %.3f not above Spectral %.3f", i, sh[i], sp[i])
		}
	}
}

func TestRunCostModelTable(t *testing.T) {
	tab := RunCostModelTable(quickCfg)
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	checkCSV(t, tab, "ba1a4ad522072824ef80a0815298f40663e62e75455520a1e089dab22c996bf5")
	// The headline: ShBF_M queries cost about half the BF's accesses.
	var bfAcc, shAcc string
	for _, row := range tab.Rows {
		switch row[0] {
		case "BF / CBF":
			bfAcc = row[1]
		case "ShBF_M / CShBF_M":
			shAcc = row[1]
		}
	}
	if bfAcc == "" || shAcc == "" {
		t.Fatal("missing schemes in cost table")
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DRAM") {
		t.Fatal("render missing model context")
	}
}

func TestRunUpdateTable(t *testing.T) {
	tab := RunUpdateTable(quickCfg)
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, row := range tab.Rows {
		names[row[0]] = true
		if row[1] == "0.00" {
			t.Fatalf("%s: zero churn throughput", row[0])
		}
	}
	for _, want := range []string{"CBF", "CShBF_M", "CShBF_X (5.3.2)", "CShBF_X (5.3.1)", "Cuckoo filter"} {
		if !names[want] {
			t.Fatalf("missing scheme %q", want)
		}
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	fig := &Figure{ID: "x", Title: "test", XLabel: "k", YLabel: "y"}
	fig.Add("a", 1, 0.5)
	fig.Add("a", 2, 0.25)
	fig.Add("b", 1, 42)
	fig.Notes = append(fig.Notes, "a note")

	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure x", "k", "a", "b", "0.5", "42", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "k,a,b" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if lines[1] != "1,0.5,42" {
		t.Fatalf("CSV row %q", lines[1])
	}
	if lines[2] != "2,0.25," {
		t.Fatalf("CSV row %q", lines[2])
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "t", Title: "demo", Columns: []string{"a", "b,with comma"}}
	tab.AddRow("1", "x\"y")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,\"b,with comma\"\n1,\"x\"\"y\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("AddRow with wrong arity did not panic")
		}
	}()
	tab.AddRow("only one")
}

func TestStats(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if Stddev([]float64{5}) != 0 {
		t.Error("Stddev of one value != 0")
	}
	if got := Stddev([]float64{2, 4}); got < 1.41 || got > 1.42 {
		t.Errorf("Stddev = %v, want √2", got)
	}
	calls := 0
	got := Repeat(3, func(i int) float64 { calls++; return float64(i) })
	if calls != 3 || got != 1 {
		t.Errorf("Repeat: calls=%d mean=%v", calls, got)
	}
	if got := Repeat(0, func(int) float64 { return 7 }); got != 7 {
		t.Errorf("Repeat(0) = %v, want 7 (clamped to 1 trial)", got)
	}
}

func TestMeasureMqps(t *testing.T) {
	if got := MeasureMqps(nil, 0, func([]byte) {}); got != 0 {
		t.Fatalf("empty workload Mqps = %v", got)
	}
	queries := [][]byte{{1}, {2}, {3}}
	got := MeasureMqps(queries, 2_000_000, func([]byte) {}) // 2ms
	if got <= 0 {
		t.Fatalf("Mqps = %v, want positive", got)
	}
}

func TestRunWindowAblation(t *testing.T) {
	figs := RunWindowAblation(quickCfg)
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	checkCSV(t, figs[0], "b9653e0124587950da9285808f550cbb19b71eb546fd0da8b1dd286e21aa0fa2")
	checkCSV(t, figs[1], "d0c599cbc166edb8e52a472bd7c3b8d094bf9be41a44fda65936450a3ea3dccf")
	soak := figs[0]
	win := seriesYs(t, soak, "window G=4")
	unb := seriesYs(t, soak, "unbounded same-size filter")
	bound := seriesYs(t, soak, "window bound 1-(1-f)^G")
	// Shape 1: the unbounded filter's FPR keeps growing; by the final
	// tick it is far above the window's.
	if unb[len(unb)-1] < 5*win[len(win)-1] {
		t.Fatalf("unbounded FPR %.4g not clearly above window FPR %.4g at the final tick",
			unb[len(unb)-1], win[len(win)-1])
	}
	// Shape 2: once steady state is reached (tick ≥ G), the window FPR
	// stays at or below the analytic bound with measurement slack.
	for i := 4; i < len(win); i++ {
		if win[i] > 2*bound[i]+0.01 {
			t.Fatalf("tick %d: window FPR %.4g above 2× bound %.4g", i+1, win[i], bound[i])
		}
	}
	// Shape 3: steady-state FPR grows with G and tracks the bound.
	byG := figs[1]
	meas := seriesYs(t, byG, "measured")
	bnds := seriesYs(t, byG, "bound 1-(1-f)^G")
	for i := range meas {
		if meas[i] > 2*bnds[i]+0.01 {
			t.Fatalf("G point %d: measured %.4g above 2× bound %.4g", i, meas[i], bnds[i])
		}
	}
	if bnds[len(bnds)-1] <= bnds[0] {
		t.Fatal("bound not increasing in G")
	}
}
