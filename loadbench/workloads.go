package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/solvecache"
	"repro/internal/wire"
)

// Sizing. Each workload's timed phase is opsPerSecond × --seconds ops: a
// fixed amount of work per seed, so the determinism counts repeat exactly,
// sized from this host's measured rates so the phase lasts about --seconds
// (see README.md for the sizing data).
const (
	coldOpsPerSecond = 220
	gwOpsPerSecond   = 1200
	// gwBase is about 1.5× the gateway's 512-entry local LRU but fits one
	// backend's 1024-entry LRU, so about ⅔ of gateway ops are local hits
	// and ⅓ proxied backend hits.
	gwBase = 768
	// Warm-up sizes are fixed, not scaled with --seconds, so set-up does the
	// same work at every run length: coldWarmOps jobs in cold_jobs, and
	// hitWarmOps hits in gateway_hits (more than the gateway's LRU holds).
	coldWarmOps = 400
	hitWarmOps  = 1000
	// setupRepeats: set-up runs this many times per run (fresh daemons each
	// time) and setup_s is the median.
	setupRepeats = 3
	// coldWarmSeed seeds cold_jobs' warm-up corpus. It is the same for every
	// --seed, less the few patterns the seed's timed corpus also holds, so
	// set-up does nearly the same work on every seed.
	coldWarmSeed = -1
)

// workload is one benchmark workload; README.md records why each exists.
type workload struct {
	name string
	run  func(e *env) (*runOut, error)
}

var workloads = []workload{
	{"cold_jobs", runCold},
	{"gateway_hits", runGateway},
}

// env is one run's configuration.
type env struct {
	bin, work string
	seed      int64
	// ops and base override the timed op count and gateway_hits' base-set
	// size (0 = sized from seconds, or gwBase); the self-test shrinks both.
	ops, base int
	seconds   int
}

func (e *env) baseSize(def int) int {
	if e.base > 0 {
		return e.base
	}
	return def
}

func (e *env) opCount(perSecond int) int {
	if e.ops > 0 {
		return e.ops
	}
	return perSecond * e.seconds
}

// runOut is everything one untraced run measured.
type runOut struct {
	attempted, failed int
	failures          []string // first few failure reasons
	e2e               map[string]float64
	layer             map[string]float64 // per-layer metrics counted from the daemons (the (c) rows)
	det               detCounts
	steal, load1      float64
	probe             [2]float64 // hostProbe before and after the timed phase
	rounds            int
	p99Samples        int                // per round
	p99Beyond         int                // per round
	props             map[string]float64 // workload property shares
	families          []familyShare      // per-family breakdown of the timed ops
	replay            *replayPlan        // what the traced run replays
}

// detCounts must not vary for one seed: they show per-op work is fixed.
type detCounts struct {
	Conflicts      int64 `json:"conflicts"`
	Proved         int   `json:"proved"`
	DepthTotal     int64 `json:"depth_total"`
	StoreAppends   int64 `json:"store_appends"`
	JournalAppends int64 `json:"journal_appends"`
}

// hitOp is one timed op of a hit workload: a fresh permutation of a proved
// base pattern.
type hitOp struct {
	base int
	m    *bitmat.Matrix
	body []byte
}

// fleet is one set-up's daemons.
type fleet struct {
	backends []*daemon // ebmfd processes
	gateway  *daemon   // nil except in gateway_hits
}

func (f *fleet) all() []*daemon {
	if f.gateway != nil {
		return append(append([]*daemon{}, f.backends...), f.gateway)
	}
	return f.backends
}

func (f *fleet) front() *daemon {
	if f.gateway != nil {
		return f.gateway
	}
	return f.backends[0]
}

func (f *fleet) stop() {
	// The gateway first, so it never sees a backend vanish under it.
	if f.gateway != nil {
		f.gateway.stop()
	}
	for _, d := range f.backends {
		d.stop()
	}
}

// snapshot is the daemon-side accounting taken at both ends of the timed
// phase.
type snapshot struct {
	mem     memStats // ebmfd processes
	gwMem   memStats // the gateway, if any
	servers []server.MetricsSnapshot
	gw      *cluster.MetricsSnapshot
	host    hostCPU
}

func takeSnapshot(f *fleet) (*snapshot, error) {
	s := &snapshot{host: readHostCPU()}
	var err error
	for _, d := range f.backends {
		ms, err := readMemStats(d)
		if err != nil {
			return nil, err
		}
		s.mem.add(ms)
		var m server.MetricsSnapshot
		if err := getJSON(d.url("/v1/metrics"), &m); err != nil {
			return nil, err
		}
		s.servers = append(s.servers, m)
	}
	if f.gateway != nil {
		if s.gwMem, err = readMemStats(f.gateway); err != nil {
			return nil, err
		}
		s.gw = new(cluster.MetricsSnapshot)
		if err := getJSON(f.gateway.url("/v1/metrics"), s.gw); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// serverSum adds up the ebmfd counters the benchmark reads.
type serverSum struct {
	hits, misses, lookups, liftFailures, rejected int64
	queueCount, queueSumNS                        int64
	storeAppends, journalAppends, appendErrors    int64
	flushes, flushNS                              int64
}

func sumServers(ms []server.MetricsSnapshot) serverSum {
	var s serverSum
	for _, m := range ms {
		s.hits += m.Cache.Hits + m.Cache.DurableHits + m.Cache.SharedHits
		s.misses += m.Cache.Misses
		s.lookups += m.Cache.Hits + m.Cache.DurableHits + m.Cache.SharedHits + m.Cache.Misses + m.Cache.Uncacheable
		s.liftFailures += m.Cache.LiftFailures
		r := m.Requests
		s.rejected += r.RejectedQueue + r.RejectedQuota + r.RejectedDrain + r.RejectedBatch + r.RejectedAuth + r.ClientGone + r.InternalErrors
		s.queueCount += m.Solves.QueueWait.Count
		s.queueSumNS += m.Solves.QueueWait.SumNS
		if m.Store != nil {
			s.storeAppends += m.Store.Appends
			s.appendErrors += m.Store.AppendErrors
			s.flushes += m.Store.Flushes
			s.flushNS += m.Store.FlushNS
		}
		if m.Journal != nil {
			s.journalAppends += m.Journal.Appends
			s.appendErrors += m.Journal.AppendErrors
		}
	}
	return s
}

// measured is a timed phase with the accounting around it. The phase runs
// in rounds of at least minRoundOps ops; rate, p50 and peak-memory metrics
// are the median over rounds, so host noise in fewer than half the rounds
// does not move them.
type measured struct {
	res           []opResult
	rounds        []round
	before, after *snapshot
	load1         float64
	probe         [2]float64
}

// round is one slice of the timed op sequence.
type round struct {
	lo, hi   int
	wall     time.Duration
	cpuTicks int64
	hwmKB    int64 // the daemons' summed peak RSS within the round
}

// The timed phase runs in up to maxRounds rounds of at least minRoundOps
// ops.
const (
	minRoundOps = 250
	maxRounds   = 16
)

// timedPhase runs ops 0..n-1 in rounds.
func timedPhase(f *fleet, c *client, n int, do func(c *client, i int) opResult) (*measured, error) {
	m := &measured{load1: loadAvg1(), res: make([]opResult, n)}
	m.probe[0] = hostProbe()
	var err error
	if m.before, err = takeSnapshot(f); err != nil {
		return nil, err
	}
	k := min(maxRounds, max(1, n/minRoundOps))
	for r := 0; r < k; r++ {
		lo, hi := r*n/k, (r+1)*n/k
		// Each round's peak RSS starts from the RSS the round starts with:
		// the peak over a whole run is set by whichever round happened to
		// overlap the most large solves, and moved 20% between runs.
		for _, d := range f.all() {
			if err := resetPeakRSS(d); err != nil {
				return nil, err
			}
		}
		p0, err := fleetStat(f.all())
		if err != nil {
			return nil, err
		}
		res, wall := closedLoop(c, hi-lo, func(c *client, i int) opResult { return do(c, lo+i) })
		p1, err := fleetStat(f.all())
		if err != nil {
			return nil, err
		}
		copy(m.res[lo:hi], res)
		m.rounds = append(m.rounds, round{lo, hi, wall, p1.cpuTicks - p0.cpuTicks, p1.hwmKB})
	}
	if m.after, err = takeSnapshot(f); err != nil {
		return nil, err
	}
	m.probe[1] = hostProbe()
	return m, nil
}

// setupRuns performs set-up setupRepeats times, each from fresh daemons, and
// keeps the last fleet for the timed phase. It returns the median set-up
// seconds.
func setupRuns(once func() (*fleet, error)) (*fleet, float64, error) {
	var secs []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = once(); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return f, median(secs), nil
}

// summarize turns checked op outcomes into the end-to-end metrics shared by
// every workload.
func summarize(out *runOut, m *measured, ok []bool, proved []bool, setupS float64) {
	var tput, cpu, p50, acc50, rss, all []float64
	nproved := 0
	for _, rd := range m.rounds {
		lat := make([]float64, 0, rd.hi-rd.lo)
		acc := make([]float64, 0, rd.hi-rd.lo)
		correct := 0
		for i := rd.lo; i < rd.hi; i++ {
			if !ok[i] {
				lat = append(lat, math.Inf(1)) // a failed op is slower than any limit
				acc = append(acc, math.Inf(1))
				continue
			}
			correct++
			if proved[i] {
				nproved++
			}
			lat = append(lat, float64(m.res[i].latency)/1e6)
			acc = append(acc, float64(m.res[i].accept)/1e6)
		}
		all = append(all, lat...)
		sort.Float64s(lat)
		sort.Float64s(acc)
		out.attempted += len(lat)
		out.failed += len(lat) - correct
		tput = append(tput, float64(correct)/rd.wall.Seconds())
		cpu = append(cpu, float64(rd.cpuTicks)*1000/clockTicks/math.Max(1, float64(correct)))
		p50 = append(p50, quantile(lat, 0.5))
		acc50 = append(acc50, quantile(acc, 0.5))
		rss = append(rss, float64(rd.hwmKB)/1024)
	}
	// p99 pools every kept op, so at the run's ≥1000 ops at least ten
	// samples lie beyond it.
	sort.Float64s(all)
	p99i := int(math.Ceil(0.99*float64(len(all)))) - 1
	out.p99Samples, out.p99Beyond = len(all), len(all)-1-p99i
	p99 := all[p99i]
	out.rounds = len(m.rounds)
	out.e2e = map[string]float64{
		"setup_s":          setupS,
		"lat_p50_ms":       median(p50),
		"lat_p99_ms":       p99,
		"throughput_ops_s": median(tput),
		"cpu_ms_per_op":    median(cpu),
		"rss_peak_mb":      median(rss),
		"proved_ratio":     float64(nproved) / float64(len(m.res)),
		"accept_p50_ms":    median(acc50),
	}
	out.steal = stealShare(m.before.host, m.after.host)
	out.load1 = m.load1
	out.probe = m.probe
	n := float64(len(m.res))
	dm := m.after.mem.sub(m.before.mem)
	bytes := 0
	for _, r := range m.res {
		bytes += r.sent + len(r.body)
	}
	sb, sa := sumServers(m.before.servers), sumServers(m.after.servers)
	out.layer = map[string]float64{
		"server.mallocs_per_op":    float64(dm.Mallocs) / n,
		"server.alloc_kb_per_op":   float64(dm.TotalAlloc) / 1024 / n,
		"server.gc_per_kop":        float64(dm.NumGC) * 1000 / n,
		"server.queue_wait_ms":     ratio(float64(sa.queueSumNS-sb.queueSumNS)/1e6, float64(sa.queueCount-sb.queueCount)),
		"server.rejected":          float64(sa.rejected - sb.rejected),
		"wire.bytes_per_op":        float64(bytes) / n,
		"solvecache.hit_ratio":     ratio(float64(sa.hits-sb.hits), float64(sa.lookups-sb.lookups)),
		"solvecache.lift_failures": float64(sa.liftFailures - sb.liftFailures),
		"store.appends":            float64(sa.storeAppends - sb.storeAppends),
		"store.journal_appends":    float64(sa.journalAppends - sb.journalAppends),
		"store.append_errors":      float64(sa.appendErrors - sb.appendErrors),
		"store.fsync_ms":           ratio(float64(sa.flushNS-sb.flushNS)/1e6, float64(sa.flushes-sb.flushes)),
	}
	out.det.StoreAppends = sa.storeAppends - sb.storeAppends
	out.det.JournalAppends = sa.journalAppends - sb.journalAppends
	if m.before.gw != nil {
		gb, ga := m.before.gw, m.after.gw
		gm := m.after.gwMem.sub(m.before.gwMem)
		out.layer["cluster.local_hit_ratio"] = ratio(float64(ga.Cache.Local.Hits-gb.Cache.Local.Hits), float64(ga.Requests.Solve-gb.Requests.Solve))
		out.layer["cluster.mallocs_per_op"] = float64(gm.Mallocs) / n
		out.layer["cluster.retries"] = float64(ga.Routing.Hedges + ga.Routing.Failovers - gb.Routing.Hedges - gb.Routing.Failovers)
		out.layer["cluster.fill_dup_ratio"] = ratio(float64(ga.Replication.Duplicate), float64(ga.Replication.Sent))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fail records a failed op's reason (the first few are printed).
func (out *runOut) fail(i int, format string, args ...any) {
	if len(out.failures) < 5 {
		out.failures = append(out.failures, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
	}
}

// ---- cold_jobs ----

func runCold(e *env) (*runOut, error) {
	seen := map[string]bool{}
	n := e.opCount(coldOpsPerSecond)
	pats := genCorpus(rand.New(rand.NewSource(e.seed)), n, seen)
	var warm []pattern // disjoint from the timed patterns
	for _, p := range genCorpus(rand.New(rand.NewSource(coldWarmSeed)), coldWarmOps, map[string]bool{}) {
		if !seen[p.hash] {
			warm = append(warm, p)
		}
	}
	bodies := make([][]byte, n)
	for i, p := range pats {
		bodies[i] = jobBody(p.m)
	}
	warmBodies := make([][]byte, len(warm))
	for i, p := range warm {
		warmBodies[i] = jobBody(p.m)
	}
	c := newClient()
	defer c.close()

	f, setupS, err := setupRuns(func() (*fleet, error) {
		storeDir, journalDir := filepath.Join(e.work, "store"), filepath.Join(e.work, "journal")
		for _, d := range []string{storeDir, journalDir} {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
		d, err := startDaemon("ebmfd", filepath.Join(e.bin, "ebmfd"), e.work, "-store", storeDir, "-job-journal", journalDir)
		if err != nil {
			return nil, err
		}
		f := &fleet{backends: []*daemon{d}}
		base := d.url("")
		res, _ := closedLoop(c, len(warmBodies), func(c *client, i int) opResult { return c.job(base, warmBodies[i]) })
		for i, r := range res {
			if r.err != nil || r.status != http.StatusAccepted {
				f.stop()
				return nil, fmt.Errorf("warm-up job %d: status %d: %v", i, r.status, r.err)
			}
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	base := f.front().url("")
	m, err := timedPhase(f, c, n, func(c *client, i int) opResult { return c.job(base, bodies[i]) })
	f.stop()
	if err != nil {
		return nil, err
	}

	// The library-vs-daemon single answer: the same options through an
	// in-process solvecache, which (like the daemon) solves the canonical
	// form, so budget-limited ops agree too.
	refs := referenceSolves(pats)
	out := &runOut{}
	ok, proved := make([]bool, n), make([]bool, n)
	var overhead []float64
	inexact := 0
	for i, r := range m.res {
		if r.err != nil || r.status != http.StatusAccepted {
			out.fail(i, "status %d: %v %s", r.status, r.err, r.body)
			continue
		}
		var ev wire.JobEvent
		if err := json.Unmarshal(r.body, &ev); err != nil || ev.Job == nil || ev.Job.Result == nil {
			out.fail(i, "bad done frame: %v %.200s", err, r.body)
			continue
		}
		j, res, ref := ev.Job, ev.Job.Result, refs[i]
		if res.Fingerprint == "" {
			inexact++
		}
		if j.State != "done" {
			out.fail(i, "job state %q: %s", j.State, j.Error)
			continue
		}
		if err := checkPartition(pats[i].m, pats[i].rank, res); err != nil {
			out.fail(i, "%v", err)
			continue
		}
		if res.Depth != ref.Depth || res.Optimal != ref.Optimal || res.Conflicts != ref.Conflicts {
			out.fail(i, "daemon depth/optimal/conflicts %d/%v/%d, library %d/%v/%d",
				res.Depth, res.Optimal, res.Conflicts, ref.Depth, ref.Optimal, ref.Conflicts)
			continue
		}
		ok[i], proved[i] = true, res.Optimal
		out.det.Conflicts += res.Conflicts
		out.det.DepthTotal += int64(res.Depth)
		if res.Optimal {
			out.det.Proved++
		}
		overhead = append(overhead, float64(r.latency)/1e6-float64(j.QueuedMS+j.RunMS))
	}
	summarize(out, m, ok, proved, setupS)
	sort.Float64s(overhead)
	out.layer["server.job_overhead_ms"] = quantile(overhead, 0.5)
	out.layer["bitmat.inexact"] = float64(inexact)
	satOps, large := 0, 0
	for i, p := range pats {
		if refs[i].SATCalls > 0 {
			satOps++
		}
		if p.m.Rows()*p.m.Cols() > 1000 {
			large++
		}
	}
	out.props = map[string]float64{
		"byte_identical_bodies": repeatedBodies(warmBodies, bodies),
		"large_arrays":          float64(large) / float64(n),
		"reach_sat":             float64(satOps) / float64(n),
	}
	out.families = familyBreakdown(m.res, func(i int) string { return pats[i].family })
	done := make([][]byte, n)
	for i, r := range m.res {
		done[i] = r.body
	}
	out.replay = &replayPlan{cold: pats, coldRefs: refs, coldDone: done}
	return out, nil
}

// referenceSolves solves every pattern in-process with the daemon's
// effective options, on all cores, outside any timed phase.
func referenceSolves(pats []pattern) []*core.Result {
	opts := daemonOptions()
	cache := solvecache.New(len(pats) + 1)
	out := make([]*core.Result, len(pats))
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(pats) {
					return
				}
				res, _, err := cache.SolveContextKeyed(context.Background(), pats[i].m, opts)
				if err != nil {
					panic(fmt.Sprintf("loadbench: reference solve %d: %v", i, err))
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}

// daemonOptions are the options an ebmfd with default flags applies to a
// request carrying only the benchmark's conflict budget.
func daemonOptions() core.Options {
	base := core.DefaultOptions()
	base.ConflictBudget = server.DefaultConflictBudget
	opts, _, err := (&wire.SolveOptions{ConflictBudget: conflictBudget}).Apply(base)
	if err != nil {
		panic(err)
	}
	return opts
}

// ---- gateway_hits ----

// hitState is the hit workload's base set and what its first set-up proved.
type hitState struct {
	base      []pattern
	depth     map[int]int   // base index → proved depth
	conflicts map[int]int64 // base index → conflicts the proof spent
	proved    []int         // base indices usable for hits
	warm      []hitOp       // warm-up hits, drawn once and sent by every set-up
	drawn     bodySet       // every hit body drawn so far, warm-up included
}

// proveBase proves the base set through the fleet's front, keeps (on the
// first set-up) the patterns that came back optimal with an exact
// fingerprint, and sends the warm-up hits.
func proveBase(f *fleet, c *client, st *hitState, warmHits int, rng *rand.Rand) error {
	url := f.front().url("/v1/solve")
	bodies := make([][]byte, len(st.base))
	for i, p := range st.base {
		bodies[i] = solveBody(p.m)
	}
	res, _ := closedLoop(c, len(bodies), func(c *client, i int) opResult { return c.solve(url, bodies[i]) })
	first := st.depth == nil
	if first {
		st.depth, st.conflicts = map[int]int{}, map[int]int64{}
	}
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("base solve %d: status %d: %v %s", i, r.status, r.err, r.body)
		}
		var rj wire.ResultJSON
		if err := json.Unmarshal(r.body, &rj); err != nil {
			return fmt.Errorf("base solve %d: %v", i, err)
		}
		if !first {
			continue
		}
		if rj.Optimal && rj.Fingerprint != "" {
			st.depth[i] = rj.Depth
			st.conflicts[i] = rj.Conflicts
			st.proved = append(st.proved, i)
		}
	}
	if len(st.proved) == 0 {
		return fmt.Errorf("no base pattern was proved optimal")
	}
	if f.gateway != nil {
		if err := waitFills(f.gateway); err != nil {
			return err
		}
	}
	if first {
		st.warm = hitOps(rng, st, warmHits)
	}
	ops := st.warm
	wres, _ := closedLoop(c, len(ops), func(c *client, i int) opResult { return c.solve(url, ops[i].body) })
	for i, r := range wres {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up hit %d: status %d: %v", i, r.status, r.err)
		}
	}
	return nil
}

// waitFills waits until the gateway has settled every replication fill it
// sent, so set-up ends with the backends' caches complete.
func waitFills(gw *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var m cluster.MetricsSnapshot
		if err := getJSON(gw.url("/v1/metrics"), &m); err != nil {
			return err
		}
		r := m.Replication
		if r.Stored+r.Duplicate+r.Failed+r.Dropped >= r.Sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication fills did not settle: %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hitOps draws n ops, each a fresh random row and column permutation of a
// proved base pattern. A draw whose body equals one drawn before (a small or
// symmetric pattern has few distinct permutations) is drawn again, so no two
// bodies of a run, warm-up included, are byte-identical.
func hitOps(rng *rand.Rand, st *hitState, n int) []hitOp {
	ops := make([]hitOp, 0, n)
	for len(ops) < n {
		b := st.proved[rng.Intn(len(st.proved))]
		m := permuted(rng, st.base[b].m)
		body := solveBody(m)
		if st.drawn.add(body) {
			ops = append(ops, hitOp{base: b, m: m, body: body})
		}
	}
	return ops
}

// bodySet remembers request bodies by their SHA-256.
type bodySet map[[sha256.Size]byte]bool

// add reports whether body is new, and remembers it.
func (s bodySet) add(body []byte) bool {
	k := sha256.Sum256(body)
	if s[k] {
		return false
	}
	s[k] = true
	return true
}

// repeatedBodies is the share of bodies equal to an earlier one or to one of
// prior (the warm-up's).
func repeatedBodies(prior, bodies [][]byte) float64 {
	seen := bodySet{}
	for _, b := range prior {
		seen.add(b)
	}
	rep := 0
	for _, b := range bodies {
		if !seen.add(b) {
			rep++
		}
	}
	return ratio(float64(rep), float64(len(bodies)))
}

func runGateway(e *env) (*runOut, error) {
	return runHits(e, e.baseSize(gwBase), e.opCount(gwOpsPerSecond), func(e *env) (*fleet, error) {
		f := &fleet{}
		for i := 0; i < 2; i++ {
			d, err := startDaemon(fmt.Sprintf("ebmfd%d", i), filepath.Join(e.bin, "ebmfd"), e.work)
			if err != nil {
				f.stop()
				return nil, err
			}
			f.backends = append(f.backends, d)
		}
		gw, err := startDaemon("ebmfgw", filepath.Join(e.bin, "ebmfgw"), e.work,
			"-backends", f.backends[0].url("")+","+f.backends[1].url(""))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gateway = gw
		return f, nil
	})
}

func runHits(e *env, nBase, n int, launch func(e *env) (*fleet, error)) (*runOut, error) {
	rng := rand.New(rand.NewSource(e.seed))
	st := &hitState{base: genCorpus(rng, nBase, map[string]bool{}), drawn: bodySet{}}
	c := newClient()
	defer c.close()
	f, setupS, err := setupRuns(func() (*fleet, error) {
		f, err := launch(e)
		if err != nil {
			return nil, err
		}
		// Every set-up sends the same warm-up hits.
		if err := proveBase(f, c, st, hitWarmOps, rand.New(rand.NewSource(e.seed+1))); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	ops := hitOps(rng, st, n)
	url := f.front().url("/v1/solve")
	m, err := timedPhase(f, c, n, func(c *client, i int) opResult { return c.solve(url, ops[i].body) })
	f.stop()
	if err != nil {
		return nil, err
	}
	out := &runOut{}
	ok, proved := make([]bool, n), make([]bool, n)
	inexact := 0
	for i, r := range m.res {
		if r.err != nil || r.status != http.StatusOK {
			out.fail(i, "status %d: %v %.200s", r.status, r.err, r.body)
			continue
		}
		var res wire.ResultJSON
		if err := json.Unmarshal(r.body, &res); err != nil {
			out.fail(i, "%v", err)
			continue
		}
		op := ops[i]
		if err := checkPartition(op.m, st.base[op.base].rank, &res); err != nil {
			out.fail(i, "%v", err)
			continue
		}
		if !res.CacheHit || !res.Optimal || res.Depth != st.depth[op.base] {
			out.fail(i, "cache_hit=%v optimal=%v depth=%d, want a hit at proved depth %d",
				res.CacheHit, res.Optimal, res.Depth, st.depth[op.base])
			continue
		}
		if res.Fingerprint == "" {
			inexact++
		}
		ok[i], proved[i] = true, true
		out.det.Proved++
		out.det.DepthTotal += int64(res.Depth)
		out.det.Conflicts += res.Conflicts
	}
	summarize(out, m, ok, proved, setupS)
	out.layer["server.job_overhead_ms"] = 0
	large := 0
	for _, op := range ops {
		if op.m.Rows()*op.m.Cols() > 1000 {
			large++
		}
	}
	out.layer["bitmat.inexact"] = float64(inexact)
	out.props = map[string]float64{
		"byte_identical_bodies": repeatedBodies(opBodies(st.warm), opBodies(ops)),
		"large_arrays":          float64(large) / float64(n),
		"reach_sat":             0,
	}
	out.families = familyBreakdown(m.res, func(i int) string { return st.base[ops[i].base].family })
	if m.before.gw != nil {
		// The gateway forwards canonical forms, so a backend-bound body
		// repeats whenever an earlier op had the same base pattern.
		out.props["gateway_local_hits"] = out.layer["cluster.local_hit_ratio"]
		out.props["byte_identical_backend_bodies"] = repeatedShare(n, func(i int) string { return st.base[ops[i].base].hash })
	}
	out.replay = &replayPlan{base: st, hits: ops}
	return out, nil
}

func opBodies(ops []hitOp) [][]byte {
	out := make([][]byte, len(ops))
	for i, op := range ops {
		out[i] = op.body
	}
	return out
}

// repeatedShare is the share of n items whose key equals an earlier item's.
func repeatedShare(n int, key func(i int) string) float64 {
	seen := make(map[string]bool, n)
	rep := 0
	for i := 0; i < n; i++ {
		k := key(i)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return ratio(float64(rep), float64(n))
}

// checkPartition checks a result against the request matrix without
// trusting any program code: every rectangle is in range, non-empty and
// covers only 1-entries; together they cover every 1-entry exactly once;
// depth is the rectangle count and at least the client-computed rank.
func checkPartition(m *bitmat.Matrix, rank int, res *wire.ResultJSON) error {
	if res.Depth != len(res.Partition) {
		return fmt.Errorf("depth %d but %d rectangles", res.Depth, len(res.Partition))
	}
	if res.Depth < rank {
		return fmt.Errorf("depth %d below rank %d", res.Depth, rank)
	}
	rows, cols := m.Rows(), m.Cols()
	cover := make([]uint8, rows*cols)
	covered := 0
	for k, r := range res.Partition {
		if len(r.Rows) == 0 || len(r.Cols) == 0 {
			return fmt.Errorf("rectangle %d is empty", k)
		}
		for _, i := range r.Rows {
			if i < 0 || i >= rows {
				return fmt.Errorf("rectangle %d: row %d out of range", k, i)
			}
			for _, j := range r.Cols {
				if j < 0 || j >= cols {
					return fmt.Errorf("rectangle %d: col %d out of range", k, j)
				}
				if !m.Get(i, j) {
					return fmt.Errorf("rectangle %d covers 0-entry (%d,%d)", k, i, j)
				}
				if cover[i*cols+j]++; cover[i*cols+j] > 1 {
					return fmt.Errorf("rectangle %d overlaps at (%d,%d)", k, i, j)
				}
				covered++
			}
		}
	}
	if covered != m.Ones() {
		return fmt.Errorf("rectangles cover %d of %d 1-entries", covered, m.Ones())
	}
	return nil
}

// familyShare is one corpus family's part of a run's timed ops.
type familyShare struct {
	name string
	ops  float64 // share of the timed ops
	time float64 // share of their summed latency
	p50  float64 // median latency, ms
}

// familyBreakdown splits the timed ops' latency by corpus family, so the
// results can be read apart from the mix.
func familyBreakdown(res []opResult, family func(i int) string) []familyShare {
	lat := map[string][]float64{}
	total := 0.0
	for i, r := range res {
		v := float64(r.latency) / 1e6
		lat[family(i)] = append(lat[family(i)], v)
		total += v
	}
	var out []familyShare
	for _, f := range families {
		xs := lat[f.name]
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		out = append(out, familyShare{f.name, float64(len(xs)) / float64(len(res)), ratio(sum, total), quantile(xs, 0.5)})
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
