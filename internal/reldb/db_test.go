package reldb

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func eventsSchema() Schema {
	return Schema{
		{Name: "run", Type: TString},
		{Name: "proc", Type: TString},
		{Name: "port", Type: TString},
		{Name: "idx", Type: TString},
		{Name: "val", Type: TInt},
	}
}

func newEventsDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("ev_rpp", "events", "run", "proc", "port", "idx"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", Schema{{Name: "a", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", Schema{{Name: "a", Type: TInt}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable("u", Schema{}); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := db.CreateTable("v", Schema{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := db.CreateTable("w", Schema{{Name: "", Type: TInt}}); err == nil {
		t.Error("empty column name accepted")
	}
	if err := db.DropTable("t"); err != nil {
		t.Error(err)
	}
	if err := db.DropTable("t"); err == nil {
		t.Error("double drop accepted")
	}
	names := db.TableNames()
	if len(names) != 0 {
		t.Errorf("TableNames = %v", names)
	}
}

func TestInsertSelect(t *testing.T) {
	db := newEventsDB(t)
	for r := 0; r < 3; r++ {
		for p := 0; p < 4; p++ {
			for i := 0; i < 5; i++ {
				_, err := db.Insert("events", Row{
					S(fmt.Sprintf("run%d", r)), S(fmt.Sprintf("proc%d", p)), S("out"),
					S(fmt.Sprintf("[%d]", i)), I(int64(r*100 + p*10 + i)),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rows, err := db.Select("events", []Pred{Eq("run", S("run1")), Eq("proc", S("proc2")), Eq("port", S("out"))}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	// Index order: idx ascending.
	for i, row := range rows {
		if row[3].Str() != fmt.Sprintf("[%d]", i) {
			t.Errorf("row %d idx = %s", i, row[3])
		}
		if row[4].Int() != int64(100+20+i) {
			t.Errorf("row %d val = %d", i, row[4].Int())
		}
	}
	// Exact lookup on the full composite key.
	rows, err = db.Select("events", []Pred{
		Eq("run", S("run0")), Eq("proc", S("proc3")), Eq("port", S("out")), Eq("idx", S("[4]")),
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][4].Int() != 34 {
		t.Fatalf("exact lookup = %v", rows)
	}
	// Limit.
	rows, err = db.Select("events", []Pred{Eq("run", S("run0"))}, 7)
	if err != nil || len(rows) != 7 {
		t.Fatalf("limited select = %d rows, err %v", len(rows), err)
	}
	// No match.
	rows, err = db.Select("events", []Pred{Eq("run", S("nope"))}, -1)
	if err != nil || len(rows) != 0 {
		t.Fatalf("no-match select = %v, %v", rows, err)
	}
	// Count.
	n, err := db.Count("events", []Pred{Eq("proc", S("proc1"))})
	if err != nil || n != 15 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	idx, full, _ := db.Stats()
	if idx == 0 {
		t.Error("no index scans recorded")
	}
	// The proc-only count cannot use the (run,proc,...) index: full scan.
	if full == 0 {
		t.Error("expected a full scan for non-prefix predicate")
	}
}

func TestSelectErrors(t *testing.T) {
	db := newEventsDB(t)
	if _, err := db.Select("nosuch", nil, -1); err == nil {
		t.Error("select from missing table accepted")
	}
	if _, err := db.Select("events", []Pred{Eq("nosuch", S("x"))}, -1); err == nil {
		t.Error("select on missing column accepted")
	}
	if _, err := db.Select("events", []Pred{Eq("run", I(3))}, -1); err == nil {
		t.Error("type-mismatched predicate accepted")
	}
	if _, err := db.Insert("nosuch", Row{}); err == nil {
		t.Error("insert into missing table accepted")
	}
	if _, err := db.Insert("events", Row{S("r")}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := db.Insert("events", Row{S("r"), S("p"), S("x"), I(1), I(1)}); err == nil {
		t.Error("type-mismatched row accepted")
	}
	if err := db.CreateIndex("i2", "nosuch", "a"); err == nil {
		t.Error("index on missing table accepted")
	}
	if err := db.CreateIndex("i2", "events", "nosuch"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := db.CreateIndex("ev_rpp", "events", "run"); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := db.Count("nosuch", nil); err == nil {
		t.Error("count on missing table accepted")
	}
	if _, err := db.Delete("nosuch", nil); err == nil {
		t.Error("delete on missing table accepted")
	}
}

func TestNullHandling(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", Schema{{Name: "a", Type: TString}, {Name: "b", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t_a", "t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", Row{Null, I(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", Row{S("x"), Null}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Select("t", []Pred{Eq("a", Null)}, -1)
	if err != nil || len(rows) != 1 || rows[0][1].Int() != 1 {
		t.Fatalf("null select = %v, %v", rows, err)
	}
}

func TestDelete(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 10; i++ {
		run := "a"
		if i%2 == 1 {
			run = "b"
		}
		if _, err := db.Insert("events", Row{S(run), S("p"), S("o"), S(fmt.Sprintf("[%d]", i)), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.Delete("events", []Pred{Eq("run", S("a"))})
	if err != nil || n != 5 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	rows, _ := db.Select("events", nil, -1)
	if len(rows) != 5 {
		t.Fatalf("rows after delete = %d", len(rows))
	}
	for _, row := range rows {
		if row[0].Str() != "b" {
			t.Errorf("surviving row from run %s", row[0])
		}
	}
	tab, _ := db.Table("events")
	if tab.NumRows() != 5 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	// Deleting everything leaves a functional table.
	if _, err := db.Delete("events", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("events", Row{S("c"), S("p"), S("o"), S("[0]"), I(0)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("events", nil); n != 1 {
		t.Errorf("count after reinsert = %d", n)
	}
}

func TestIndexAfterData(t *testing.T) {
	// Backfill: creating an index on a populated table must index existing
	// rows.
	db := NewDB()
	if _, err := db.CreateTable("t", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Insert("t", Row{S("r"), S("p"), S("o"), S(fmt.Sprintf("[%03d]", i)), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("late", "t", "idx"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Select("t", []Pred{Eq("idx", S("[042]"))}, -1)
	if err != nil || len(rows) != 1 || rows[0][4].Int() != 42 {
		t.Fatalf("backfilled index lookup = %v, %v", rows, err)
	}
	tab, _ := db.Table("t")
	ix, ok := tab.FindIndex("late")
	if !ok || ix.tree.Len() != 100 {
		t.Fatalf("index not backfilled: %v", ok)
	}
}

func TestSelectAgainstReference(t *testing.T) {
	// Random workload cross-checked against a naive in-memory reference.
	db := newEventsDB(t)
	rng := rand.New(rand.NewSource(9))
	type refRow struct{ run, proc, port, idx string }
	var ref []refRow
	for i := 0; i < 2000; i++ {
		r := refRow{
			run:  fmt.Sprintf("r%d", rng.Intn(5)),
			proc: fmt.Sprintf("p%d", rng.Intn(10)),
			port: fmt.Sprintf("o%d", rng.Intn(3)),
			idx:  fmt.Sprintf("[%d]", rng.Intn(20)),
		}
		ref = append(ref, r)
		if _, err := db.Insert("events", Row{S(r.run), S(r.proc), S(r.port), S(r.idx), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 200; q++ {
		run := fmt.Sprintf("r%d", rng.Intn(5))
		proc := fmt.Sprintf("p%d", rng.Intn(10))
		want := 0
		for _, r := range ref {
			if r.run == run && r.proc == proc {
				want++
			}
		}
		got, err := db.Count("events", []Pred{Eq("run", S(run)), Eq("proc", S(proc))})
		if err != nil || got != want {
			t.Fatalf("query %d: got %d want %d (err %v)", q, got, want, err)
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("events", Row{S("r"), S("p"), S("o"), S(fmt.Sprintf("[%d]", i)), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n, err := db.Count("events", []Pred{Eq("run", S("r"))})
				if err != nil {
					errs <- err
					return
				}
				if n < 500 {
					errs <- fmt.Errorf("reader saw %d rows", n)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Insert("events", Row{S("w"), S("p"), S("o"), S(fmt.Sprintf("[%d-%d]", g, i)), I(0)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 300; i++ {
		if _, err := db.Insert("events", Row{
			S(fmt.Sprintf("run%d", i%3)), S("p"), S("o"), S(fmt.Sprintf("[%d]", i)), I(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateTable("other", Schema{
		{Name: "k", Type: TString}, {Name: "f", Type: TFloat}, {Name: "blob", Type: TBytes},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("other", Row{S("x"), F(1.5), B([]byte{1, 2, 3})}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("other", Row{Null, Null, Null}); err != nil {
		t.Fatal(err)
	}
	// Tombstone one row so the snapshot contains a gap.
	if _, err := db.Delete("events", []Pred{Eq("idx", S("[5]"))}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "snap.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.TableNames(); len(got) != 2 || got[0] != "events" || got[1] != "other" {
		t.Fatalf("TableNames = %v", got)
	}
	n, err := back.Count("events", nil)
	if err != nil || n != 299 {
		t.Fatalf("events after reload = %d, %v", n, err)
	}
	// Index must still work after reload.
	rows, err := back.Select("events", []Pred{Eq("run", S("run1")), Eq("proc", S("p")), Eq("port", S("o")), Eq("idx", S("[7]"))}, -1)
	if err != nil || len(rows) != 1 || rows[0][4].Int() != 7 {
		t.Fatalf("indexed lookup after reload = %v, %v", rows, err)
	}
	rows, err = back.Select("other", nil, -1)
	if err != nil || len(rows) != 2 {
		t.Fatalf("other after reload = %v, %v", rows, err)
	}
	if rows[0][1].Float() != 1.5 || string(rows[0][2].Bytes()) != "\x01\x02\x03" {
		t.Errorf("other row 0 = %v", rows[0])
	}
	if !rows[1][0].IsNull() {
		t.Errorf("null not preserved: %v", rows[1])
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("load of missing file accepted")
	}
	// Corrupt file: flip a byte in a valid snapshot.
	db := newEventsDB(t)
	if _, err := db.Insert("events", Row{S("r"), S("p"), S("o"), S("[0]"), I(1)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	bad := filepath.Join(dir, "bad.db")
	if err := writeFile(bad, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted load error = %v", err)
	}
	// Truncated file.
	trunc := filepath.Join(dir, "trunc.db")
	if err := writeFile(trunc, data[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(trunc); err == nil {
		t.Error("truncated load accepted")
	}
}

func TestDatumAccessors(t *testing.T) {
	if I(5).Int() != 5 || F(2.5).Float() != 2.5 || S("x").Str() != "x" || string(B([]byte("b")).Bytes()) != "b" {
		t.Error("accessor mismatch")
	}
	if !Null.IsNull() || I(0).IsNull() {
		t.Error("IsNull mismatch")
	}
	if I(1).Equal(F(1)) || !S("a").Equal(S("a")) || !Null.Equal(Null) {
		t.Error("Equal mismatch")
	}
	if Null.Compare(I(0)) != -1 || I(1).Compare(S("a")) != -1 {
		t.Error("cross-type Compare mismatch")
	}
	for _, d := range []Datum{Null, I(-3), F(0.5), S("hi"), B([]byte{0xAB})} {
		if d.String() == "" {
			t.Errorf("empty String for %v", d.Type())
		}
	}
	if TInt.String() != "INT" || TString.String() != "TEXT" || TFloat.String() != "FLOAT" || TBytes.String() != "BLOB" {
		t.Error("ColType.String mismatch")
	}
	if ct, ok := ParseColType("VARCHAR"); !ok || ct != TString {
		t.Error("ParseColType VARCHAR")
	}
	if _, ok := ParseColType("JSONB"); ok {
		t.Error("ParseColType accepted unknown type")
	}
}

func readFile(path string) ([]byte, error)  { return osReadFile(path) }
func writeFile(path string, b []byte) error { return osWriteFile(path, b) }

func TestPrefixPredicate(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 30; i++ {
		if _, err := db.Insert("events", Row{
			S("r"), S("p"), S("o"), S(fmt.Sprintf("[%d,%d]", i/10, i%10)), I(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Prefix on the idx column following three equality columns: must use
	// the (run, proc, port, idx) index, not a full scan.
	_, fullBefore, _ := db.Stats()
	rows, err := db.Select("events", []Pred{
		Eq("run", S("r")), Eq("proc", S("p")), Eq("port", S("o")), Prefix("idx", "[1,"),
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("prefix select = %d rows, want 10", len(rows))
	}
	for _, row := range rows {
		if !strings.HasPrefix(row[3].Str(), "[1,") {
			t.Errorf("row idx %s does not match prefix", row[3])
		}
	}
	if _, fullAfter, _ := db.Stats(); fullAfter != fullBefore {
		t.Error("prefix query fell back to a full scan")
	}
	// Prefix-only predicate on an unindexed column: full scan, same answer.
	rows, err = db.Select("events", []Pred{Prefix("idx", "[2,")}, -1)
	if err != nil || len(rows) != 10 {
		t.Fatalf("unassisted prefix = %d rows, %v", len(rows), err)
	}
	// Empty prefix matches everything.
	n, err := db.Count("events", []Pred{Eq("run", S("r")), Eq("proc", S("p")), Eq("port", S("o")), Prefix("idx", "")})
	if err != nil || n != 30 {
		t.Fatalf("empty prefix count = %d, %v", n, err)
	}
	// Type errors.
	if _, err := db.Select("events", []Pred{Prefix("val", "x")}, -1); err == nil {
		t.Error("prefix on INT column accepted")
	}
}

func TestRangePredicates(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 40; i++ {
		run := "a"
		if i%4 == 0 {
			run = "b"
		}
		if _, err := db.Insert("events", Row{S(run), S("p"), S("o"), S(fmt.Sprintf("[%06d]", i)), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Indexed range on the idx column after three equality columns.
	_, fullBefore, _ := db.Stats()
	rows, err := db.Select("events", []Pred{
		Eq("run", S("a")), Eq("proc", S("p")), Eq("port", S("o")),
		Ge("idx", S("[000010]")), Lt("idx", S("[000020]")),
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 10; i < 20; i++ {
		if i%4 != 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("range rows = %d, want %d", len(rows), want)
	}
	if _, fullAfter, _ := db.Stats(); fullAfter != fullBefore {
		t.Error("indexed range query fell back to a full scan")
	}
	// Unindexed range on the int column: full scan, same answer.
	n, err := db.Count("events", []Pred{Gt("val", I(35))})
	if err != nil || n != 4 {
		t.Fatalf("Gt count = %d, %v", n, err)
	}
	n, err = db.Count("events", []Pred{Le("val", I(3))})
	if err != nil || n != 4 {
		t.Fatalf("Le count = %d, %v", n, err)
	}
	// Exclusive bounds.
	n, err = db.Count("events", []Pred{Eq("run", S("b")), Eq("proc", S("p")), Eq("port", S("o")), Gt("idx", S("[000000]")), Le("idx", S("[000008]"))})
	if err != nil || n != 2 { // [000004], [000008]
		t.Fatalf("Gt/Le count = %d, %v", n, err)
	}
	// Errors.
	if _, err := db.Select("events", []Pred{Gt("val", S("x"))}, -1); err == nil {
		t.Error("type-mismatched range accepted")
	}
	if _, err := db.Select("events", []Pred{Gt("val", Null)}, -1); err == nil {
		t.Error("NULL range accepted")
	}
	if _, err := db.Select("events", []Pred{{Col: "val", Val: I(1), Op: PredOp(99)}}, -1); err == nil {
		t.Error("unknown op accepted")
	}
}

// A prepared Scan walks the same path as the equivalent Select — index
// order, early stop — against the live database and a pinned snapshot alike,
// and re-plans when the table's layout changes under it (quarantine → heap
// scan → rebuild → index again) without the caller doing anything.
func TestPreparedScan(t *testing.T) {
	db := newEventsDB(t)
	for i := 0; i < 12; i++ {
		run := "r0"
		if i%3 == 0 {
			run = "r1"
		}
		if _, err := db.Insert("events", Row{S(run), S("p"), S("o"), S(fmt.Sprintf("[%02d]", i)), I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScan("events", PredShape{"run", OpEq}, PredShape{"idx", OpPrefix})
	preds := []Pred{Eq("run", S("r1")), Prefix("idx", "[0")}
	scan := func(r interface {
		Scan(*Scan, []Datum, func(int64, Row) bool) error
	}) (got []int64) {
		t.Helper()
		if err := r.Scan(sc, []Datum{S("r1"), S("[0")}, func(_ int64, row Row) bool {
			got = append(got, row[4].Int())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := db.Select("events", preds, -1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []int64) {
		t.Helper()
		if len(got) != len(want) || len(got) != 4 {
			t.Fatalf("%s: scan = %v, select returned %d rows", what, got, len(want))
		}
		for i := range got {
			if got[i] != want[i][4].Int() {
				t.Fatalf("%s: scan = %v, out of Select order", what, got)
			}
		}
	}
	snap := db.Snapshot()
	check("live", scan(db))
	if _, err := db.Insert("events", Row{S("r1"), S("p"), S("o"), S("[00]"), I(99)}); err != nil {
		t.Fatal(err)
	}
	check("pinned", scan(snap))
	snap.Release()
	if err := snap.Scan(sc, []Datum{S("r1"), S("[0")}, nil); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("scan through a released snapshot: %v", err)
	}
	if _, err := db.Delete("events", []Pred{Eq("val", I(99))}); err != nil {
		t.Fatal(err)
	}

	// Early stop.
	n := 0
	if err := db.Scan(NewScan("events"), nil, func(int64, Row) bool { n++; return n < 3 }); err != nil || n != 3 {
		t.Errorf("early stop visited %d (err %v)", n, err)
	}

	// Layout changes: the cached plan must not outlive the index it chose.
	tab, _ := db.Table("events")
	ix, _ := tab.FindIndex("ev_rpp")
	row, _ := tab.row(3)
	ix.tree.Delete(ix.entryKey(row, 3))
	if len(db.VerifyIndexes()) != 1 {
		t.Fatal("sabotaged index not quarantined")
	}
	_, fullBefore, _ := db.Stats()
	check("quarantined", scan(db))
	if _, full, _ := db.Stats(); full != fullBefore+1 {
		t.Fatal("prepared scan kept using a quarantined index")
	}
	db.RebuildDamaged()
	idxBefore, _, _ := db.Stats()
	check("rebuilt", scan(db))
	if idx, _, _ := db.Stats(); idx != idxBefore+1 {
		t.Fatal("prepared scan did not return to the rebuilt index")
	}

	// Argument errors surface at run time, shape errors at plan time.
	if err := db.Scan(sc, []Datum{S("r1")}, nil); err == nil {
		t.Error("short argument list accepted")
	}
	if err := db.Scan(sc, []Datum{I(1), S("[0")}, nil); err == nil {
		t.Error("mistyped argument accepted")
	}
	if err := db.Scan(NewScan("events", PredShape{"nope", OpEq}), []Datum{I(1)}, nil); err == nil {
		t.Error("unknown column accepted")
	}
	if err := db.Scan(NewScan("missing"), nil, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("unknown table: %v", err)
	}
}
