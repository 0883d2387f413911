package clsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrLocalMemExceeded reports a kernel whose local-memory allocations do
// not fit the device. The tuner treats such kernels like the paper
// treats kernels that fail compilation: discarded and not counted.
var ErrLocalMemExceeded = errors.New("clsim: local memory allocation exceeds device capacity")

// ErrBarrierDivergence reports a kernel in which some work-items of a
// group reached a barrier while another finished without it (undefined
// behaviour in OpenCL; detected and reported here).
var ErrBarrierDivergence = errors.New("clsim: work-items diverged at a barrier")

// Group is the per-work-group execution state: identity, local memory,
// and the barrier shared by the group's work-items.
type Group struct {
	id  [2]int
	nd  NDRange
	dev *Device

	localUsed int
	barrier   *wgBarrier
	barriers  int64
}

// ID returns the group index in dimension d.
func (g *Group) ID(d int) int { return g.id[d] }

// Size returns work-items per group.
func (g *Group) Size() int { return g.nd.GroupSize() }

// LocalSize returns the group size in dimension d.
func (g *Group) LocalSize(d int) int { return g.nd.Local[d] }

// NumGroups returns the group-grid extent in dimension d.
func (g *Group) NumGroups(d int) int { return g.nd.NumGroups()[d] }

// AllocLocalFloat32 allocates n float32 elements of local memory.
// It panics with ErrLocalMemExceeded when the device capacity is
// exceeded; executors convert the panic into an error result.
func (g *Group) AllocLocalFloat32(n int) []float32 {
	g.takeLocal(4 * n)
	return make([]float32, n)
}

// AllocLocalFloat64 allocates n float64 elements of local memory.
func (g *Group) AllocLocalFloat64(n int) []float64 {
	g.takeLocal(8 * n)
	return make([]float64, n)
}

// TakeLocal charges bytes of local memory against the device capacity
// without allocating backing storage. Kernels that pool their local
// slabs across launches use it so the per-group capacity accounting —
// and its ErrLocalMemExceeded panic — stays exactly as strict as
// AllocLocalFloat32/64.
func (g *Group) TakeLocal(bytes int) { g.takeLocal(bytes) }

func (g *Group) takeLocal(bytes int) {
	g.localUsed += bytes
	if g.localUsed > g.dev.Spec.LocalMemBytes() {
		panic(ErrLocalMemExceeded)
	}
}

// LocalBytesUsed returns the local memory the kernel has allocated so far.
func (g *Group) LocalBytesUsed() int { return g.localUsed }

// Item is the per-work-item handle passed to kernel code.
type Item struct {
	group   *Group
	localID [2]int
}

// Group returns the item's work-group.
func (it *Item) Group() *Group { return it.group }

// LocalID returns get_local_id(d).
func (it *Item) LocalID(d int) int { return it.localID[d] }

// GlobalID returns get_global_id(d).
func (it *Item) GlobalID(d int) int {
	return it.group.id[d]*it.group.nd.Local[d] + it.localID[d]
}

// GroupID returns get_group_id(d).
func (it *Item) GroupID(d int) int { return it.group.id[d] }

// LocalSize returns get_local_size(d).
func (it *Item) LocalSize(d int) int { return it.group.nd.Local[d] }

// GlobalSize returns get_global_size(d).
func (it *Item) GlobalSize(d int) int { return it.group.nd.Global[d] }

// LinearLocalID returns the row-major flattened local id
// (local_id(1)*local_size(0) + local_id(0)), matching OpenCL's
// get_local_linear_id for 2-D ranges.
func (it *Item) LinearLocalID() int {
	return it.localID[1]*it.group.nd.Local[0] + it.localID[0]
}

// Barrier executes barrier(CLK_LOCAL_MEM_FENCE): no work-item of the
// group proceeds until all have arrived.
func (it *Item) Barrier() {
	atomic.AddInt64(&it.group.barriers, 1)
	it.group.barrier.wait()
}

// WorkItemKernel is kernel code expressed per work-item, the way OpenCL
// kernels are written (SPMD). SetupGroup runs once per work-group before
// its items start and typically allocates local memory; the returned
// value is handed to every Run call of that group.
type WorkItemKernel interface {
	Name() string
	SetupGroup(g *Group) any
	Run(it *Item, shared any)
}

// GroupKernel is kernel code expressed in barrier-phase form: RunGroup
// drives all work-items of one group through the kernel's phases via
// ForAll, which is semantically a loop over work-items followed by a
// barrier. This lockstep form avoids a goroutine per work-item and is
// used by the native GEMM kernels.
type GroupKernel interface {
	Name() string
	RunGroup(g *GroupRun)
}

// GroupRun drives one work-group of a GroupKernel.
type GroupRun struct {
	*Group
}

// ForAll executes fn for every work-item of the group (arguments are
// local ids lx, ly) and then performs an implicit barrier.
func (g *GroupRun) ForAll(fn func(lx, ly int)) {
	for ly := 0; ly < g.nd.Local[1]; ly++ {
		for lx := 0; lx < g.nd.Local[0]; lx++ {
			fn(lx, ly)
		}
	}
	g.barriers++
}

// PhaseBarrier records one barrier without iterating work-items.
// Kernels that fuse a whole ForAll phase into bulk operations
// (panel-row copies, register-tiled loops) call it once per fused phase
// so their barrier statistics stay identical to the phase-by-phase
// form — TestPhaseBarrierMatchesForAll asserts both report the same
// QueueStats.
func (g *GroupRun) PhaseBarrier() { g.barriers++ }

// GlobalID0 returns the global id in dimension 0 for local id lx.
func (g *GroupRun) GlobalID0(lx int) int { return g.id[0]*g.nd.Local[0] + lx }

// GlobalID1 returns the global id in dimension 1 for local id ly.
func (g *GroupRun) GlobalID1(ly int) int { return g.id[1]*g.nd.Local[1] + ly }

// workerCount resolves the queue's Workers option: 0 (or negative)
// means one worker per available CPU.
func (q *Queue) workerCount() int {
	if q.Workers > 0 {
		return q.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachGroup dispatches every work-group id of the NDRange to run,
// either serially (one worker) or over a pool of worker goroutines.
// Work-groups of one launch are independent in the OpenCL execution
// model, so the schedule cannot change results. The first error wins.
func (q *Queue) forEachGroup(nd NDRange, run func(gid [2]int) error) error {
	groups := nd.NumGroups()
	if q.workerCount() == 1 {
		var firstErr error
		for gy := 0; gy < groups[1]; gy++ {
			for gx := 0; gx < groups[0]; gx++ {
				if err := run([2]int{gx, gy}); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}
	var firstErr atomic.Value
	work := make(chan [2]int)
	var wg sync.WaitGroup
	for w := 0; w < q.workerCount(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gid := range work {
				if err := run(gid); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	for gy := 0; gy < groups[1]; gy++ {
		for gx := 0; gx < groups[0]; gx++ {
			work <- [2]int{gx, gy}
		}
	}
	close(work)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return err
	}
	return nil
}

// Run executes a WorkItemKernel over the NDRange with one goroutine per
// work-item inside each group (true concurrent execution with a cyclic
// barrier). Work-groups are distributed over the queue's worker pool.
// Kernel panics become errors.
func (q *Queue) Run(k WorkItemKernel, nd NDRange) error {
	if err := nd.Validate(q.Ctx.Device); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	if err := q.launchAllowed(k.Name()); err != nil {
		return err
	}
	var barriers int64
	err := q.forEachGroup(nd, func(gid [2]int) error {
		return q.runGroupConcurrent(k, nd, gid, &barriers)
	})

	q.addLaunch(int64(nd.TotalGroups()), int64(nd.Global[0])*int64(nd.Global[1]), barriers)
	if err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	return nil
}

func (q *Queue) runGroupConcurrent(k WorkItemKernel, nd NDRange, gid [2]int, barriers *int64) (err error) {
	size := nd.GroupSize()
	g := &Group{id: gid, nd: nd, dev: q.Ctx.Device, barrier: newWGBarrier(size)}
	defer func() {
		atomic.AddInt64(barriers, g.barriers)
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	shared := k.SetupGroup(g)

	errs := make(chan error, size)
	var iwg sync.WaitGroup
	for ly := 0; ly < nd.Local[1]; ly++ {
		for lx := 0; lx < nd.Local[0]; lx++ {
			iwg.Add(1)
			go func(lx, ly int) {
				defer iwg.Done()
				it := &Item{group: g, localID: [2]int{lx, ly}}
				defer g.barrier.leave()
				defer func() {
					if r := recover(); r != nil {
						g.barrier.abort(recoveredError(r))
						errs <- recoveredError(r)
					}
				}()
				k.Run(it, shared)
			}(lx, ly)
		}
	}
	iwg.Wait()
	select {
	case e := <-errs:
		return e
	default:
	}
	if e := g.barrier.err(); e != nil {
		return e
	}
	return nil
}

// RunLockstep executes a GroupKernel over the NDRange, distributing
// independent groups over the queue's worker pool (bounded by the
// Workers option). Kernel panics become errors.
//
// The single-worker path is allocation-free in the steady state:
// GroupRun frames are recycled through a queue-owned free list (a
// mutex-guarded stack, not sync.Pool, whose GC-droppable items would
// defeat the warm-launch zero-allocation guarantee) and the group loop
// runs without closures.
func (q *Queue) RunLockstep(k GroupKernel, nd NDRange) error {
	if err := nd.Validate(q.Ctx.Device); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	if q.LaunchHook != nil {
		if err := q.launchAllowed(k.Name()); err != nil {
			return err
		}
	}
	var barriers int64
	var err error
	if q.workerCount() == 1 {
		barriers, err = q.runLockstepSerial(k, nd)
	} else {
		barriers, err = q.runLockstepParallel(k, nd)
	}
	q.addLaunch(int64(nd.TotalGroups()), int64(nd.Global[0])*int64(nd.Global[1]), barriers)
	if err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	return nil
}

func (q *Queue) runLockstepSerial(k GroupKernel, nd NDRange) (int64, error) {
	groups := nd.NumGroups()
	var barriers int64
	var firstErr error
	for gy := 0; gy < groups[1]; gy++ {
		for gx := 0; gx < groups[0]; gx++ {
			g := q.getGroupRun()
			*g.Group = Group{id: [2]int{gx, gy}, nd: nd, dev: q.Ctx.Device}
			err := runLockstepGroup(k, g)
			barriers += g.barriers
			q.putGroupRun(g)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return barriers, firstErr
}

func (q *Queue) runLockstepParallel(k GroupKernel, nd NDRange) (int64, error) {
	var barriers int64
	err := q.forEachGroup(nd, func(gid [2]int) error {
		g := q.getGroupRun()
		*g.Group = Group{id: gid, nd: nd, dev: q.Ctx.Device}
		err := runLockstepGroup(k, g)
		atomic.AddInt64(&barriers, g.barriers)
		q.putGroupRun(g)
		return err
	})
	return barriers, err
}

// runLockstepGroup runs one group, converting kernel panics (local
// memory exhaustion, bounds faults) into errors.
func runLockstepGroup(k GroupKernel, g *GroupRun) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	k.RunGroup(g)
	return nil
}

func (q *Queue) getGroupRun() *GroupRun {
	q.grMu.Lock()
	var g *GroupRun
	if n := len(q.grFree); n > 0 {
		g = q.grFree[n-1]
		q.grFree = q.grFree[:n-1]
	}
	q.grMu.Unlock()
	if g == nil {
		g = &GroupRun{Group: &Group{}}
	}
	return g
}

func (q *Queue) putGroupRun(g *GroupRun) {
	q.grMu.Lock()
	q.grFree = append(q.grFree, g)
	q.grMu.Unlock()
}

// launchAllowed consults the queue's LaunchHook (simulated launch-time
// failures).
func (q *Queue) launchAllowed(name string) error {
	if q.LaunchHook == nil {
		return nil
	}
	if err := q.LaunchHook(name); err != nil {
		return fmt.Errorf("kernel %s: launch rejected: %w", name, err)
	}
	return nil
}

func recoveredError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("clsim: kernel panic: %v", r)
}
