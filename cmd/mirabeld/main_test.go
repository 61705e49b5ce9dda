package main

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

var seedStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

func writeHouseCSV(t *testing.T, path string, days int) {
	t.Helper()
	res := 15 * time.Minute
	perDay := int((24 * time.Hour) / res)
	vals := make([]float64, days*perDay)
	for i := range vals {
		frac := float64(i%perDay) / float64(perDay) * 24
		vals[i] = 0.2 + 0.6*math.Exp(-(frac-19)*(frac-19)/6)
	}
	s := timeseries.MustNew(seedStart, res, vals)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
}

func TestSeedStoreBulkSubmits(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 3)
	}
	// Replay clock before the historical deadlines, as -clock would set.
	clock := seedStart.Add(-48 * time.Hour)
	store := market.NewStore(func() time.Time { return clock })
	if err := seedStore(context.Background(), store, nil, nil, nil, nil, nil, dir, "peak", 0.05, 4); err != nil {
		t.Fatal(err)
	}
	counts := store.Stats()
	if counts.Offered == 0 {
		t.Fatal("seeding left the store empty")
	}
	// Offers from every series arrived, with qualified IDs.
	bySeries := make(map[string]int)
	for _, rec := range store.List() {
		id := rec.Offer.ID
		slash := strings.IndexByte(id, '/')
		if slash < 0 {
			t.Fatalf("offer ID %q not qualified with its series name", id)
		}
		bySeries[id[:slash]]++
		if rec.Offer.ConsumerID != id[:slash] {
			t.Fatalf("offer %q has consumer %q", id, rec.Offer.ConsumerID)
		}
	}
	if len(bySeries) != n {
		t.Fatalf("offers from %d series, want %d", len(bySeries), n)
	}
}

func TestSeedStoreLiveClockRejectsHistoricalOffers(t *testing.T) {
	dir := t.TempDir()
	writeHouseCSV(t, filepath.Join(dir, "old.csv"), 2)
	store := market.NewStore(nil) // live clock: 2012 deadlines lapsed long ago
	err := seedStore(context.Background(), store, nil, nil, nil, nil, nil, dir, "peak", 0.05, 2)
	if err == nil {
		t.Fatal("historical offers accepted under a live clock")
	}
	if !strings.Contains(err.Error(), "-clock") {
		t.Fatalf("err = %v, want hint about -clock", err)
	}
}

func TestSeedStoreErrors(t *testing.T) {
	if err := seedStore(context.Background(), market.NewStore(nil), nil, nil, nil, nil, nil, t.TempDir(), "peak", 0.05, 1); err == nil {
		t.Fatal("empty seed dir accepted")
	}
	dir := t.TempDir()
	writeHouseCSV(t, filepath.Join(dir, "h.csv"), 2)
	if err := seedStore(context.Background(), market.NewStore(nil), nil, nil, nil, nil, nil, dir, "frequency", 0.05, 1); err == nil {
		t.Fatal("unsupported seed approach accepted")
	}
}

func TestSeedStoreSurvivesFaultInjection(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b", "c"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 2)
	}
	prof, err := faultinject.ParseProfile("seed=11,error=0.3,panic=0.05")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewSchedule(prof)
	clock := seedStart.Add(-48 * time.Hour)
	store := market.NewStore(func() time.Time { return clock })
	if err := seedStore(context.Background(), store, nil, nil, nil, nil, faults, dir, "peak", 0.05, 2); err != nil {
		t.Fatal(err)
	}
	if faults.Counts()["total"] == 0 {
		t.Fatal("fault schedule never consulted")
	}
	if store.Stats().Offered == 0 {
		t.Fatal("fault injection emptied the store; the resilient sink did not retry")
	}
}

// TestSeedDeadLettersReachKPI: under an all-error fault profile every
// extracted offer is dead-lettered, and seeding books each one on the KPI
// service against its household, so GET /kpi reports the whole loss.
func TestSeedDeadLettersReachKPI(t *testing.T) {
	dir := t.TempDir()
	houses := []string{"a", "b", "c"}
	for _, name := range houses {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 2)
	}
	clock := seedStart.Add(-48 * time.Hour)
	now := func() time.Time { return clock }

	// The oracle: the same seed without faults lands every offer in a
	// store, under its household's ConsumerID.
	clean := market.NewStore(now)
	if err := seedStore(context.Background(), clean, nil, nil, nil, nil, nil, dir, "peak", 0.05, 2); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]uint64)
	var total uint64
	for _, r := range clean.List() {
		want[r.Offer.ConsumerID]++
		total++
	}
	if len(want) != len(houses) {
		t.Fatalf("clean seed gave offers to %d owners, want %d: %v", len(want), len(houses), want)
	}

	prof, err := faultinject.ParseProfile("seed=1,error=1")
	if err != nil {
		t.Fatal(err)
	}
	store := market.NewStore(now)
	kpis, err := kpi.NewService(kpi.ServiceConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer kpis.Close()
	if err := seedStore(context.Background(), store, kpis, nil, nil, nil, faultinject.NewSchedule(prof), dir, "peak", 0.05, 2); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Offered; n != 0 {
		t.Fatalf("all-error profile let %d offers into the store", n)
	}
	rep := kpis.Report()
	if rep.Global.DeadLettered != total {
		t.Errorf("global dead_lettered = %d, want the %d offers the seed extracted", rep.Global.DeadLettered, total)
	}
	if rep.Global.DeadLetterLossRatio != 1 {
		t.Errorf("dead_letter_loss_ratio = %v, want 1", rep.Global.DeadLetterLossRatio)
	}
	for owner, n := range want {
		if got := rep.Owners[owner].DeadLettered; got != n {
			t.Errorf("owner %s dead_lettered = %d, want %d", owner, got, n)
		}
	}
	if len(rep.Owners) != len(want) {
		t.Errorf("KPI report has %d owners, want %d: %v", len(rep.Owners), len(want), rep.Owners)
	}
}

func TestSeedStoreCancelled(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b", "c"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // shutdown arrives before seeding starts reading files
	store := market.NewStore(nil)
	err := seedStore(ctx, store, nil, nil, nil, nil, nil, dir, "peak", 0.05, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled seed = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "seeding cancelled") {
		t.Fatalf("err = %v, want a seeding-cancelled message", err)
	}
	if got := len(store.List()); got != 0 {
		t.Fatalf("cancelled seed still submitted %d offers", got)
	}
}

// TestSeedStoreBadFileLeavesJournalUntouched seeds a journaled store from
// a directory with two malformed CSVs among good ones: the seed fails,
// names the first bad file in sorted order, and neither the store nor
// its journal has taken anything.
func TestSeedStoreBadFileLeavesJournalUntouched(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"h1", "h2", "h3", "h5", "h7", "h8"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 2)
	}
	for _, name := range []string{"h4", "h6"} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte("timestamp,kwh\nnot-a-time,1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clock := seedStart.Add(-48 * time.Hour)
	store, journal, err := market.OpenJournaled(market.JournalOptions{Dir: t.TempDir(), Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	err = seedStore(context.Background(), store, nil, nil, nil, nil, nil, dir, "peak", 0.05, 4)
	if err == nil || !strings.Contains(err.Error(), "h4.csv") || strings.Contains(err.Error(), "h6.csv") {
		t.Fatalf("seed error = %v, want one naming h4.csv alone", err)
	}
	if n := len(store.List()); n != 0 {
		t.Fatalf("failed seed left %d offers in the store", n)
	}
	if n := journal.Stats().WAL.Appends; n != 0 {
		t.Fatalf("failed seed journaled %d events", n)
	}
}

// TestSeedStoreJobsInvariant seeds the same directory with one and with
// four workers: the stores must hold the same offers in the same states.
func TestSeedStoreJobsInvariant(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 3)
	}
	type offer struct {
		id     string
		state  market.State
		energy float64
	}
	seed := func(jobs int) []offer {
		clock := seedStart.Add(-48 * time.Hour)
		store := market.NewStore(func() time.Time { return clock })
		if err := seedStore(context.Background(), store, nil, nil, nil, nil, nil, dir, "peak", 0.05, jobs); err != nil {
			t.Fatal(err)
		}
		var out []offer
		for _, r := range store.List() {
			out = append(out, offer{r.Offer.ID, r.State, r.Offer.TotalAvgEnergy()})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
		return out
	}
	one, four := seed(1), seed(4)
	if len(one) == 0 {
		t.Fatal("seeding left the store empty")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("jobs 1 and jobs 4 seeded different stores:\n%v\n%v", one, four)
	}
}

// quietLogger builds a logger that swallows output for run() error paths.
func quietLogger(t *testing.T) *obs.Logger {
	t.Helper()
	level, err := obs.ParseLevel("error")
	if err != nil {
		t.Fatal(err)
	}
	return obs.NewLogger(io.Discard, level)
}

func TestRunRejectsBadJournalConfig(t *testing.T) {
	logger := quietLogger(t)
	err := run(config{dataDir: t.TempDir(), fsync: "sometimes"}, logger)
	if err == nil || !strings.Contains(err.Error(), "-fsync") {
		t.Fatalf("bad fsync policy: %v, want -fsync context", err)
	}
	// A -data-dir that collides with a regular file cannot be created.
	clash := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(clash, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(config{dataDir: filepath.Join(clash, "wal"), fsync: "always"}, logger)
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("unusable data dir: %v, want -data-dir context", err)
	}
}

func TestFaultScheduleFlag(t *testing.T) {
	reg := obs.NewRegistry()
	if s, err := faultSchedule("", reg); s != nil || err != nil {
		t.Fatalf("empty profile: schedule %v, err %v", s, err)
	}
	if _, err := faultSchedule("error=2.0", reg); err == nil || !strings.Contains(err.Error(), "-fault-profile") {
		t.Fatalf("invalid profile error = %v, want -fault-profile context", err)
	}
	s, err := faultSchedule("seed=5,error=0.5", reg)
	if err != nil || s == nil {
		t.Fatalf("valid profile: %v, %v", s, err)
	}
	s.Next()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "faultinject_decisions") {
		t.Fatal("fault decisions not registered on /metrics registry")
	}
}

// TestSeedDoneLogReportsWallOnLiveClock pins both forms of the "seed
// done" line: on the live clock it reports the pipeline's wall time and
// speedup, and under a pinned -clock, which stands still and would make
// both read zero, it leaves them out.
func TestSeedDoneLogReportsWallOnLiveClock(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b", "c"} {
		writeHouseCSV(t, filepath.Join(dir, name+".csv"), 3)
	}
	pinned := seedStart.Add(-48 * time.Hour)
	live := regexp.MustCompile(`msg="seed done" offers=\d+ series=3 batch=3 rejected=0 extract_errors=0 retries=0 dead_lettered=0 wall=\S+ speedup=\d+\.\d\dx workers=2\n`)
	clocked := regexp.MustCompile(`msg="seed done" offers=\d+ series=3 batch=3 rejected=0 extract_errors=0 retries=0 dead_lettered=0 workers=2\n`)
	for _, c := range []struct {
		name  string
		clock func() time.Time
		want  *regexp.Regexp
	}{
		{"live", nil, live},
		{"pinned", func() time.Time { return pinned }, clocked},
	} {
		var out strings.Builder
		logger := obs.NewLogger(&out, obs.LevelInfo)
		store := market.NewStore(func() time.Time { return pinned })
		if err := seedStore(context.Background(), store, nil, nil, logger, c.clock, nil, dir, "peak", 0.05, 2); err != nil {
			t.Fatalf("%s clock: %v", c.name, err)
		}
		if !c.want.MatchString(out.String()) {
			t.Errorf("%s clock: seed log does not match %s:\n%s", c.name, c.want, out.String())
		}
	}
}
