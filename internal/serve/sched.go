package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"htdp/internal/experiments"
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// errQueueFull is returned by submit when the global queue bound is at
// capacity; the HTTP layer maps it to 503 so callers can back off —
// the scheduler never buffers unboundedly.
var errQueueFull = errors.New("serve: job queue full")

// errTenantQueueFull is returned by submit when the submitting
// tenant's own queue quota is at capacity while the global queue still
// has room; the HTTP layer maps it to 429 quota_exceeded — the
// overload is this tenant's, not the service's.
var errTenantQueueFull = errors.New("serve: tenant queue quota reached")

// errNotCancellable is returned by cancel for a job that already
// finished: there is nothing left to cancel. Queued jobs cancel
// immediately; running jobs cancel cooperatively (their context is
// cancelled and the worker lands them in the cancelled state when it
// observes it).
var errNotCancellable = errors.New("serve: job already finished")

// errCancelledByDelete is the context cause of DELETE /v1/jobs/{id} on
// a running job.
var errCancelledByDelete = errors.New("job cancelled by DELETE /v1/jobs/{id}")

// errShuttingDown is the context cause when a graceful shutdown
// force-cancels jobs that did not drain within the deadline.
var errShuttingDown = errors.New("job cancelled by server shutdown")

// errTenantRevoked is the context cause when a token-file reload
// removes a tenant: its queued and running jobs are cancelled through
// the same context seam DELETE uses.
var errTenantRevoked = errors.New("job cancelled: tenant access revoked")

// JobStatus is the JSON shape of one job, served by GET /v1/jobs/{id}.
// It is deliberately time-free so job documents are deterministic: a
// finished sweep's document depends only on its request (and on the
// identity of its submitter).
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // "run" or "sweep"
	Status string `json:"status"`
	// Tenant is the tenant that submitted the job ("anonymous" when
	// the server runs without auth).
	Tenant string `json:"tenant,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress is the last per-panel progress event of a sweep job
	// (absent for runs and for sweeps that have not finished a panel
	// yet). Its terminal value is deterministic: done == total.
	Progress *experiments.Progress `json:"progress,omitempty"`
}

// job is one unit of scheduled work. Result bytes are written exactly
// once, before done is closed; readers wait on done. The job's fn
// receives a context derived from the scheduler's base context (plus
// the job's own deadline, if any); DELETE and shutdown cancel it, and
// the worker classifies the outcome from its cause when fn returns.
//
// tenant is the submitter; attached collects the other tenants whose
// requests coalesced onto this job (singleflight followers), who may
// observe it but not cancel it.
type job struct {
	id      string
	kind    string
	key     string // cache key, "" for jobs outside the singleflight group
	tenant  string
	timeout time.Duration
	fn      func(context.Context, *job) ([]byte, error)
	done    chan struct{}

	mu         sync.Mutex
	state      string
	cancel     context.CancelCauseFunc // non-nil exactly while running
	attached   map[string]bool
	result     []byte
	errMsg     string
	deadline   bool // failed by exceeding its deadline → 504, not 422
	finishedAt time.Time
	progress   *experiments.Progress
	subs       []chan experiments.Progress
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.kind, Status: j.state, Tenant: j.tenant, Error: j.errMsg}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	return st
}

// wait blocks until the job finished (done, failed, or cancelled).
func (j *job) wait() { <-j.done }

// resultBytes returns the finished job's exact response bytes. Callers
// must not mutate the slice.
func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// deadlineExceeded reports whether a failed job failed by running past
// its deadline — the HTTP layer maps exactly those to 504.
func (j *job) deadlineExceeded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadline
}

// attach grants another tenant visibility of this job — a singleflight
// follower received its id, so /v1/jobs must resolve it for them.
func (j *job) attach(tenant string) {
	j.mu.Lock()
	if tenant != j.tenant {
		if j.attached == nil {
			j.attached = make(map[string]bool)
		}
		j.attached[tenant] = true
	}
	j.mu.Unlock()
}

// visibleTo reports whether the tenant submitted or attached to this
// job. Handlers answer 404 — not 403 — for invisible jobs, so one
// tenant cannot probe for the existence of another's job ids.
func (j *job) visibleTo(tenant string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return tenant == j.tenant || j.attached[tenant]
}

// ownedBy reports whether the tenant submitted this job (only the
// submitter may cancel it; attached followers get 403).
func (j *job) ownedBy(tenant string) bool { return tenant == j.tenant }

// finish records fn's outcome and releases waiters. cause is the job
// context's cancellation cause (nil if the context was never
// cancelled): a deadline cause marks the failure as 504 material, any
// other cause lands the job in cancelled — by construction the only
// canceller is a DELETE, a revocation, or a draining shutdown, and
// either way the partial work is discarded and must never read as a
// failure of the request itself.
func (j *job) finish(result []byte, err, cause error, now time.Time) {
	j.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		// A job that raced its cancellation to completion still
		// completed: the bytes are valid (pure function of the request)
		// and serving them is strictly more useful than discarding them.
		j.state, j.result = jobDone, result
	case errors.Is(cause, context.DeadlineExceeded):
		j.state, j.errMsg, j.deadline = jobFailed, err.Error(), true
	case cause != nil:
		j.state, j.errMsg = jobCancelled, cause.Error()
	default:
		j.state, j.errMsg = jobFailed, err.Error()
	}
	j.finishedAt = now
	j.mu.Unlock()
	close(j.done)
}

// setProgress records a sweep's per-panel progress and fans it out to
// SSE subscribers. Sends are non-blocking: a slow subscriber skips
// intermediate events (its terminal event still carries the final
// progress), so a stalled client can never stall the worker.
func (j *job) setProgress(p experiments.Progress) {
	j.mu.Lock()
	cp := p
	j.progress = &cp
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers an SSE subscriber channel of the given capacity,
// pre-loaded with the current progress (if any) so late subscribers see
// state immediately. The pre-load is the same lossy non-blocking send
// as setProgress: a zero-capacity (or already-full) subscriber misses
// the snapshot instead of deadlocking the caller against the job lock.
func (j *job) subscribe(capacity int) chan experiments.Progress {
	ch := make(chan experiments.Progress, capacity)
	j.mu.Lock()
	if j.progress != nil {
		select {
		case ch <- *j.progress:
		default:
		}
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan experiments.Progress) {
	j.mu.Lock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// scheduler is the bounded job scheduler under /v1/run and /v1/sweep: a
// fixed worker pool consuming per-tenant FIFO queues under a global
// depth bound, so the service sheds load by rejecting (503) instead of
// by queueing without limit. Dispatch across tenants is deterministic
// weighted round-robin (see next): one tenant's flood can fill only its
// own queue, and every other tenant keeps receiving its weight's share
// of dispatches — the fairness half of the multi-tenant front door.
// Scheduling order never affects results — every job derives its
// randomness from its own request seed and owns its source handles —
// which is what lets sync and async submissions of the same request
// share one cache entry regardless of which tenant's queue ran it.
// Finished jobs are retained for /v1/jobs and /v1/results lookups under
// two bounds: a FIFO count bound and an optional age TTL.
//
// Every job runs under a context chained off baseCtx; close cancels
// baseCtx once the drain deadline passes, which is how shutdown
// pre-empts stragglers without knowing anything about what they
// compute.
type scheduler struct {
	wg  sync.WaitGroup
	ttl time.Duration    // 0 = no age-based eviction
	now func() time.Time // injected for TTL tests

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc
	// timeoutCtx wraps a job context with its deadline; swapped by the
	// deadline tests for a hand-triggered fake so 504 paths are tested
	// without wall-clock sleeps.
	timeoutCtx func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)

	mu   sync.Mutex
	cond *sync.Cond // workers wait here for dispatchable jobs

	// The fair-queueing state. queues holds the waiting jobs per
	// tenant; rr is the round-robin rotation (tenants in first-seen
	// order — bounded by the token table plus anonymous, so it never
	// grows with traffic); credits is the deficit counter of the
	// rotation's current position, refilled to the tenant's weight each
	// time the cursor arrives. depth bounds the waiting total globally
	// (503 beyond it); tenantQueue bounds each tenant's share of it
	// (429 beyond it); tenantJobs caps each tenant's concurrently
	// running jobs at dispatch, letting a queued tenant wait without
	// blocking anyone else's dispatch.
	queues      map[string][]*job
	rr          []string
	inRR        map[string]bool
	rrPos       int
	credits     map[string]int
	weights     map[string]int
	queuedN     map[string]int
	runningN    map[string]int
	queuedTotal int
	depth       int
	tenantJobs  int // 0 = unlimited
	tenantQueue int // 0 = bounded only by depth
	// testDispatch, when set (under mu, by the fairness tests),
	// observes each dispatch's tenant in dispatch order.
	testDispatch func(tenant string)

	jobs    map[string]*job
	order   []string // insertion order, for bounded retention
	next    int
	expired int64 // TTL evictions, for /metrics
	closed  bool
	// Shutdown accounting, for the htdp_shutdown_* metric pair: jobs
	// that finished naturally during the drain window vs jobs the
	// shutdown cancelled (queued jobs flushed, running jobs pre-empted).
	shutdownDrained   int64
	shutdownCancelled int64
	// earliestFinish is the oldest finishedAt among retained finished
	// jobs (zero = none known). It lets evictExpiredLocked return in
	// O(1) when nothing can have expired yet, instead of scanning the
	// whole retention list on every scheduler call. It may go stale-old
	// when the count bound evicts the oldest job — that only costs one
	// refreshing scan, never a missed expiry.
	earliestFinish time.Time
}

// maxRetainedJobs bounds the finished-job history kept for
// /v1/jobs and /v1/results lookups.
const maxRetainedJobs = 1024

// newScheduler builds the pool. tenantJobs caps one tenant's
// concurrently running jobs (0 = unlimited); tenantQueue caps one
// tenant's waiting jobs inside the global depth bound (0 = bounded
// only by depth). Both are fixed at construction — workers read them
// without further coordination.
func newScheduler(workers, depth int, ttl time.Duration, tenantJobs, tenantQueue int) *scheduler {
	baseCtx, cancelBase := context.WithCancelCause(context.Background())
	s := &scheduler{
		queues:      make(map[string][]*job),
		inRR:        make(map[string]bool),
		credits:     make(map[string]int),
		weights:     make(map[string]int),
		queuedN:     make(map[string]int),
		runningN:    make(map[string]int),
		depth:       depth,
		tenantJobs:  tenantJobs,
		tenantQueue: tenantQueue,
		jobs:        make(map[string]*job),
		ttl:         ttl,
		now:         time.Now,
		baseCtx:     baseCtx,
		cancelBase:  cancelBase,
		timeoutCtx: func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
			return context.WithTimeout(parent, d)
		},
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.nextJob()
				if j == nil {
					return
				}
				s.runJob(j)
				s.release(j.tenant)
			}
		}()
	}
	return s
}

// nextJob blocks until a job is dispatchable (or the scheduler closed
// with nothing left to run) and claims it for the calling worker.
func (s *scheduler) nextJob() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.dispatchLocked(); j != nil {
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// dispatchLocked picks the next job under deterministic weighted
// round-robin: the rotation cursor's tenant may dispatch up to weight
// jobs (its credits) before the cursor advances; tenants with an empty
// queue or at their running cap are skipped without losing their turn's
// place in the rotation. One full scan plus one position guarantees
// every tenant is examined with refilled credits, so the scan returns
// nil only when no tenant has a dispatchable job. Caller holds s.mu.
func (s *scheduler) dispatchLocked() *job {
	n := len(s.rr)
	for i := 0; i <= n; i++ {
		if len(s.rr) == 0 {
			return nil
		}
		t := s.rr[s.rrPos]
		if s.credits[t] > 0 && len(s.queues[t]) > 0 &&
			(s.tenantJobs <= 0 || s.runningN[t] < s.tenantJobs) {
			q := s.queues[t]
			j := q[0]
			s.queues[t] = q[1:]
			s.queuedN[t]--
			s.queuedTotal--
			s.runningN[t]++
			s.credits[t]--
			if s.credits[t] == 0 || len(s.queues[t]) == 0 {
				s.advanceLocked()
			}
			if s.testDispatch != nil {
				s.testDispatch(t)
			}
			return j
		}
		s.advanceLocked()
	}
	return nil
}

// advanceLocked moves the rotation cursor to the next tenant and
// refills that tenant's credits to its weight. Caller holds s.mu.
func (s *scheduler) advanceLocked() {
	if len(s.rr) == 0 {
		return
	}
	s.rrPos++
	if s.rrPos >= len(s.rr) {
		s.rrPos = 0
	}
	t := s.rr[s.rrPos]
	s.credits[t] = s.weights[t]
}

// release returns a tenant's running slot after its job finished and
// wakes workers that may now dispatch that tenant's next job.
func (s *scheduler) release(tenant string) {
	s.mu.Lock()
	s.runningN[tenant]--
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *scheduler) runJob(j *job) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	if draining {
		// The scheduler is shutting down: a job claimed in the same
		// instant finishes as cancelled instead of running, so its
		// waiters unblock and wait() can never hang on a closed
		// scheduler.
		s.finishCancelled(j, errShuttingDown)
		return
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	runCtx, stopTimer := context.Context(ctx), context.CancelFunc(func() {})
	if j.timeout > 0 {
		runCtx, stopTimer = s.timeoutCtx(ctx, j.timeout)
	}
	j.mu.Lock()
	if j.state != jobQueued {
		// Cancelled while waiting in the queue: the job is already
		// terminal, never run it.
		j.mu.Unlock()
		stopTimer()
		cancel(nil)
		return
	}
	j.state = jobRunning
	j.cancel = cancel
	j.mu.Unlock()
	var (
		result []byte
		err    error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		result, err = j.fn(runCtx, j)
	}()
	cause := context.Cause(runCtx)
	stopTimer()
	cancel(nil)
	finishedAt := s.now()
	// Finish and count under one hold of s.mu, so a shutdown begun by a
	// waiter that already has the result never tallies this job as
	// drained. (s.mu before j.mu, the order counts() nests them in.)
	s.mu.Lock()
	j.finish(result, err, cause, finishedAt)
	s.noteFinishedLocked(finishedAt)
	if s.closed {
		// This job was in flight when shutdown began; record whether it
		// drained to a real result or was cut short.
		if st := j.status().Status; st == jobCancelled {
			s.shutdownCancelled++
		} else {
			s.shutdownDrained++
		}
	}
	s.mu.Unlock()
}

// finishCancelled lands a not-yet-running job in the cancelled state
// (no-op if it already left the queued state) and counts it against the
// shutdown if one is in progress.
func (s *scheduler) finishCancelled(j *job, cause error) {
	finishedAt := s.now()
	// s.mu before j.mu, the order counts() nests them in; held until
	// the job is counted, as in runJob.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	if j.state != jobQueued {
		j.mu.Unlock()
		return
	}
	j.state = jobCancelled
	j.errMsg = cause.Error()
	j.finishedAt = finishedAt
	j.mu.Unlock()
	close(j.done)
	s.noteFinishedLocked(finishedAt)
	if s.closed {
		s.shutdownCancelled++
	}
}

// removeQueued takes a still-waiting job out of its tenant's queue, so
// an eagerly-cancelled job frees its quota slot immediately instead of
// occupying it until a worker skips it. No-op when a worker already
// claimed the job.
func (s *scheduler) removeQueued(j *job) {
	s.mu.Lock()
	q := s.queues[j.tenant]
	for i, cand := range q {
		if cand == j {
			s.queues[j.tenant] = append(q[:i], q[i+1:]...)
			s.queuedN[j.tenant]--
			s.queuedTotal--
			break
		}
	}
	s.mu.Unlock()
}

// noteFinishedLocked records a job completion time for the expiry
// watermark. Caller holds s.mu.
func (s *scheduler) noteFinishedLocked(t time.Time) {
	if s.earliestFinish.IsZero() || t.Before(s.earliestFinish) {
		s.earliestFinish = t
	}
}

// evictExpiredLocked drops finished jobs older than the TTL. Called
// lazily from every scheduler entry point, so expiry needs no
// background goroutine; the earliestFinish watermark makes the common
// nothing-to-do case O(1). Caller holds s.mu.
func (s *scheduler) evictExpiredLocked() {
	if s.ttl <= 0 {
		return
	}
	cutoff := s.now().Add(-s.ttl)
	if s.earliestFinish.IsZero() || s.earliestFinish.After(cutoff) {
		return // nothing finished long enough ago to expire
	}
	var earliest time.Time
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		finished := j.state == jobDone || j.state == jobFailed || j.state == jobCancelled
		finishedAt := j.finishedAt
		j.mu.Unlock()
		if finished && finishedAt.Before(cutoff) {
			delete(s.jobs, id)
			s.expired++
			continue
		}
		if finished && (earliest.IsZero() || finishedAt.Before(earliest)) {
			earliest = finishedAt
		}
		kept = append(kept, id)
	}
	s.order = kept
	s.earliestFinish = earliest
}

// registerLocked adds a job to the lookup table, evicting the oldest
// *finished* jobs beyond the retention bound (live jobs are skipped,
// never evicted — retention may overshoot only by the number of
// still-running jobs). Caller holds s.mu.
func (s *scheduler) registerLocked(j *job) {
	s.next++
	j.id = fmt.Sprintf("job-%06d", s.next)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > maxRetainedJobs {
		evicted := false
		for i, id := range s.order {
			old, ok := s.jobs[id]
			if ok {
				old.mu.Lock()
				finished := old.state == jobDone || old.state == jobFailed || old.state == jobCancelled
				old.mu.Unlock()
				if !finished {
					continue
				}
				delete(s.jobs, id)
			}
			s.order = append(s.order[:i], s.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // everything retained is live; accept the overshoot
		}
	}
}

// enqueueLocked appends a registered job to its tenant's queue, adding
// the tenant to the rotation on first sight. Caller holds s.mu.
func (s *scheduler) enqueueLocked(j *job, weight int) {
	t := j.tenant
	if weight < 1 {
		weight = 1
	}
	s.weights[t] = weight
	if !s.inRR[t] {
		s.inRR[t] = true
		s.rr = append(s.rr, t)
		if len(s.rr) == 1 {
			s.rrPos = 0
			s.credits[t] = weight
		}
	}
	s.queues[t] = append(s.queues[t], j)
	s.queuedN[t]++
	s.queuedTotal++
}

// submit registers and enqueues a job, or fails fast: errQueueFull
// (503) past the global depth bound, errTenantQueueFull (429) past the
// submitting tenant's own queue quota. key is the cache key the job
// computes ("" for uncached work); the server's singleflight group
// uses it to collapse duplicate misses. tenant owns the job for
// fairness, quota, and visibility; weight is its round-robin share.
// timeout, when positive, bounds the job's execution (not its queue
// wait): past it the job's context is cancelled with a deadline cause
// and the job fails as deadline-exceeded.
func (s *scheduler) submit(kind, key, tenant string, weight int, timeout time.Duration, fn func(context.Context, *job) ([]byte, error)) (*job, error) {
	j := &job{kind: kind, key: key, tenant: tenant, timeout: timeout, fn: fn, done: make(chan struct{}), state: jobQueued}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("serve: scheduler closed")
	}
	s.evictExpiredLocked()
	// Reject without registering: a job that never ran should not
	// occupy retention slots or resolve via /v1/jobs.
	if s.queuedTotal >= s.depth {
		s.mu.Unlock()
		return nil, errQueueFull
	}
	if s.tenantQueue > 0 && s.queuedN[tenant] >= s.tenantQueue {
		s.mu.Unlock()
		return nil, errTenantQueueFull
	}
	s.enqueueLocked(j, weight)
	s.registerLocked(j)
	s.mu.Unlock()
	s.cond.Signal()
	return j, nil
}

// completed registers an already-finished job carrying the given result
// bytes — the async path of a cache hit: the caller gets a job id whose
// result is immediately available.
func (s *scheduler) completed(kind, tenant string, result []byte) (*job, error) {
	j := &job{kind: kind, tenant: tenant, done: make(chan struct{}), state: jobDone, result: result}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("serve: scheduler closed")
	}
	s.evictExpiredLocked()
	j.finishedAt = s.now()
	s.noteFinishedLocked(j.finishedAt)
	s.registerLocked(j)
	s.mu.Unlock()
	close(j.done)
	return j, nil
}

// cancel stops a job. A still-queued job lands in cancelled immediately
// (and leaves its tenant's queue, freeing the quota slot); a running
// job has its context cancelled and lands in cancelled when the worker
// observes it — bounded by the computation's chunk/point granularity,
// never a hard kill — in which case cancel reports pending=true.
// Finished jobs return errNotCancellable.
func (s *scheduler) cancel(j *job) (pending bool, err error) {
	j.mu.Lock()
	switch j.state {
	case jobQueued:
		j.mu.Unlock()
		s.removeQueued(j)
		s.finishCancelled(j, errors.New("cancelled before running"))
		return false, nil
	case jobRunning:
		cancelFn := j.cancel // non-nil exactly while running
		j.mu.Unlock()
		cancelFn(errCancelledByDelete)
		return true, nil
	default:
		j.mu.Unlock()
		return false, errNotCancellable
	}
}

// cancelTenant cancels every queued and running job a tenant owns —
// the enforcement seam of the front door: a token-file reload that
// revokes a tenant reclaims its scheduler share immediately, mid-job,
// through the same contexts DELETE and shutdown use. It returns how
// many jobs were told to stop (queued ones land in cancelled
// synchronously; running ones land there when their computation
// observes the context).
func (s *scheduler) cancelTenant(tenant string, cause error) int {
	s.mu.Lock()
	queued := s.queues[tenant]
	if len(queued) > 0 {
		s.queuedTotal -= len(queued)
		s.queuedN[tenant] -= len(queued)
		s.queues[tenant] = nil
	}
	var cancels []context.CancelCauseFunc
	for _, j := range s.jobs {
		if j.tenant != tenant {
			continue
		}
		j.mu.Lock()
		if j.state == jobRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range queued {
		s.finishCancelled(j, cause)
	}
	for _, cancelFn := range cancels {
		cancelFn(cause)
	}
	return len(queued) + len(cancels)
}

// get looks a job up by id (expired jobs are evicted first, so a
// TTL-expired id is a miss).
func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked()
	j, ok := s.jobs[id]
	return j, ok
}

// counts returns the number of retained jobs per state plus the
// cumulative TTL-expiry count, for /metrics.
func (s *scheduler) counts() (states map[string]int, expired int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked()
	out := map[string]int{jobQueued: 0, jobRunning: 0, jobDone: 0, jobFailed: 0, jobCancelled: 0}
	for _, j := range s.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out, s.expired
}

// tenantCounts returns each tenant's waiting and running job counts,
// for the htdp_tenant_jobs{tenant,state} gauges. Only tenants the
// scheduler has seen appear; cardinality is bounded by the token
// table.
func (s *scheduler) tenantCounts() (queued, running map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued = make(map[string]int, len(s.rr))
	running = make(map[string]int, len(s.rr))
	for _, t := range s.rr {
		queued[t] = s.queuedN[t]
		running[t] = s.runningN[t]
	}
	return queued, running
}

// shutdownCounts returns the drained/cancelled tallies of a shutdown in
// progress (or completed), for /metrics and the cmd-layer drain log.
func (s *scheduler) shutdownCounts() (drained, cancelled int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdownDrained, s.shutdownCancelled
}

// close stops accepting work and shuts the pool down. Semantics, which
// TestSchedulerCloseCancelsQueued pins:
//
//   - new submissions fail immediately (the HTTP layer answers 503);
//   - jobs still waiting in the tenant queues finish as cancelled —
//     their waiters unblock, wait() never hangs on a closed scheduler;
//   - jobs already running get until ctx's deadline to finish
//     naturally; when the deadline passes their contexts are cancelled
//     (cause: shutdown) and close waits for them to observe it, which
//     cooperative computations do within one chunk or grid point.
//
// close(context.Background()) therefore drains running jobs fully and
// is what Server.Close uses; cmd/htdp passes a -draintimeout-bounded
// context on SIGTERM. Idempotent; the queues are flushed under s.mu,
// serialized against submit's enqueue.
func (s *scheduler) close(ctx context.Context) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var flushed []*job
	for t, q := range s.queues {
		flushed = append(flushed, q...)
		s.queuedTotal -= len(q)
		s.queuedN[t] -= len(q)
		s.queues[t] = nil
	}
	s.mu.Unlock()
	for _, j := range flushed {
		s.finishCancelled(j, errShuttingDown)
	}
	s.cond.Broadcast()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase(errShuttingDown)
		<-done
	}
}
