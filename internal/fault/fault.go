// Package fault is a deterministic, seedable fault-injection registry.
// Production code marks interesting failure sites with near-zero-cost
// named injection points:
//
//	if err := fault.Point("dist.allreduce"); err != nil { ... retry ... }
//
// and tests (or the CLI's -inject flag) arm those points with a Fault —
// an error, a panic or a delay — triggered on the nth call, with a seeded
// probability, or on every call, optionally a bounded number of times.
//
// When nothing is armed, Point costs a single atomic load and allocates
// nothing, so the hooks are safe to leave in hot paths. Probability draws
// come from a seeded splitmix64 generator (see Seed), so probabilistic
// fault schedules are reproducible run to run.
//
// The package is a leaf except for the obs metrics registry: every fire
// increments fault_injected_total{point="..."} so injected faults are
// visible on /metrics next to the recovery counters it exercises.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harpgbdt/internal/obs"
)

// The point vocabulary. Every production injection point self-registers at
// package init of its owning package (var _ = fault.RegisterPoint(...)), so
// the registry can validate CLI -inject specs against the set of points
// that actually exist — a spec naming a typo'd point errors at arm time
// instead of silently never firing. Programmatic Enable stays permissive:
// tests arm ad-hoc fixture points freely.
var (
	knownMu    sync.Mutex
	knownDocs  = map[string]string{}
	knownNames []string // sorted mirror of knownDocs' keys
)

// RegisterPoint declares a production injection point and returns its name
// (so owning packages can bind it to a package-level var the Point call
// sites share). Registering the same name again is a no-op.
func RegisterPoint(name, doc string) string {
	knownMu.Lock()
	defer knownMu.Unlock()
	if _, dup := knownDocs[name]; !dup {
		knownDocs[name] = doc
		knownNames = append(knownNames, name)
		sort.Strings(knownNames)
	}
	return name
}

// KnownPoints lists every registered production injection point, sorted.
func KnownPoints() []string {
	knownMu.Lock()
	defer knownMu.Unlock()
	return append([]string(nil), knownNames...)
}

// IsKnownPoint reports whether name was registered via RegisterPoint.
func IsKnownPoint(name string) bool {
	knownMu.Lock()
	defer knownMu.Unlock()
	_, ok := knownDocs[name]
	return ok
}

// prng is a splitmix64 generator. The package keeps its own tiny PRNG
// instead of using internal/synth because fault must stay importable from
// every layer (synth pulls in dataset, which pulls in sched, which hooks
// fault — a cycle).
type prng uint64

func (p *prng) Float64() float64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// ErrInjected is the default error returned by an Error-kind fault.
var ErrInjected = errors.New("fault: injected error")

// Kind selects what an armed fault does when it triggers.
type Kind int

const (
	// Error makes Point return an error (Fault.Err or ErrInjected).
	Error Kind = iota
	// Panic makes Point panic with an *InjectedPanic.
	Panic
	// Delay makes Point sleep for Fault.Sleep and return nil.
	Delay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// InjectedPanic is the value a Panic-kind fault panics with, so recovery
// layers can distinguish injected panics from real bugs.
type InjectedPanic struct {
	Point   string
	Message string
}

// Error makes *InjectedPanic usable as an error after recover().
func (p *InjectedPanic) Error() string {
	msg := p.Message
	if msg == "" {
		msg = "injected panic"
	}
	return fmt.Sprintf("fault: %s at point %q", msg, p.Point)
}

// Fault describes one armed fault: what to do (Kind, Err, Sleep) and when
// to trigger (After, Prob, Times).
type Fault struct {
	// Kind selects the action (Error, Panic or Delay).
	Kind Kind
	// Err is returned by Error-kind faults (nil selects ErrInjected).
	Err error
	// Message annotates Panic-kind faults.
	Message string
	// Sleep is the Delay-kind pause.
	Sleep time.Duration
	// After skips the first After calls to the point: After = 5 makes the
	// 6th call the first eligible one.
	After int64
	// Prob, when in (0, 1), triggers each eligible call with that
	// probability using the registry's seeded generator. 0 (and >= 1)
	// means every eligible call triggers.
	Prob float64
	// Times bounds how often the fault fires (0 = unlimited).
	Times int64
}

// armed is one registered point with its trigger bookkeeping.
type armed struct {
	fault Fault
	calls atomic.Int64
	fired atomic.Int64
}

// Registry holds the armed injection points. The zero value is not usable;
// use NewRegistry, or the package-level functions that drive the process
// default registry.
type Registry struct {
	mu     sync.Mutex
	points map[string]*armed
	rng    prng
	// active mirrors len(points) so the disabled fast path of Point is a
	// single atomic load.
	active atomic.Int32
}

// NewRegistry returns an empty registry seeded with seed.
func NewRegistry(seed uint64) *Registry {
	return &Registry{points: make(map[string]*armed), rng: prng(seed)}
}

// Seed reseeds the probability generator (deterministic schedules).
func (r *Registry) Seed(seed uint64) {
	r.mu.Lock()
	r.rng = prng(seed)
	r.mu.Unlock()
}

// Enable arms (or re-arms, resetting its counters) the named point.
func (r *Registry) Enable(name string, f Fault) {
	r.mu.Lock()
	r.points[name] = &armed{fault: f}
	r.active.Store(int32(len(r.points)))
	r.mu.Unlock()
}

// Disable disarms the named point (no-op when not armed).
func (r *Registry) Disable(name string) {
	r.mu.Lock()
	delete(r.points, name)
	r.active.Store(int32(len(r.points)))
	r.mu.Unlock()
}

// Reset disarms every point.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.points = make(map[string]*armed)
	r.active.Store(0)
	r.mu.Unlock()
}

// Calls reports how many times the named point was reached since it was
// armed (0 when not armed).
func (r *Registry) Calls(name string) int64 {
	r.mu.Lock()
	a := r.points[name]
	r.mu.Unlock()
	if a == nil {
		return 0
	}
	return a.calls.Load()
}

// Fired reports how many times the named point actually triggered.
func (r *Registry) Fired(name string) int64 {
	r.mu.Lock()
	a := r.points[name]
	r.mu.Unlock()
	if a == nil {
		return 0
	}
	return a.fired.Load()
}

var mInjected = obs.DefaultRegistry().Counter("fault_injected_total",
	"Total faults fired by the injection registry")

// Point checks the named injection point: nil when the point is not armed
// or its trigger does not fire; otherwise the armed fault's action happens
// (error returned, panic thrown, or delay slept). Safe for concurrent use.
func (r *Registry) Point(name string) error {
	if r.active.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	a := r.points[name]
	if a == nil {
		r.mu.Unlock()
		return nil
	}
	n := a.calls.Add(1)
	f := a.fault
	if n <= f.After {
		r.mu.Unlock()
		return nil
	}
	if f.Times > 0 && a.fired.Load() >= f.Times {
		r.mu.Unlock()
		return nil
	}
	if f.Prob > 0 && f.Prob < 1 && r.rng.Float64() >= f.Prob {
		r.mu.Unlock()
		return nil
	}
	a.fired.Add(1)
	r.mu.Unlock()
	mInjected.Inc()
	obs.L().Warn("fault injected", obs.KeyComponent, "fault", obs.KeyPoint, name)
	switch f.Kind {
	case Panic:
		// A panic-kind fault may take the whole process down before any
		// recovery layer runs; dump the flight recorder first so the crash
		// always leaves a post-mortem artifact. A failed dump cannot stop
		// the injected panic, but it must not vanish either — the missing
		// artifact's cause belongs in the log.
		if _, dumpErr := obs.DumpFlight("injected panic"); dumpErr != nil {
			obs.L().Error("flight dump failed",
				obs.KeyComponent, "fault", obs.KeyError, dumpErr.Error())
		}
		panic(&InjectedPanic{Point: name, Message: f.Message})
	case Delay:
		time.Sleep(f.Sleep)
		return nil
	default:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("%w at point %q", ErrInjected, name)
	}
}

// defaultRegistry is the process-wide registry the production hooks use.
var defaultRegistry = NewRegistry(1)

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Point checks name against the process-wide registry.
func Point(name string) error { return defaultRegistry.Point(name) }

// Enable arms name on the process-wide registry.
func Enable(name string, f Fault) { defaultRegistry.Enable(name, f) }

// Disable disarms name on the process-wide registry.
func Disable(name string) { defaultRegistry.Disable(name) }

// Reset disarms every point of the process-wide registry.
func Reset() { defaultRegistry.Reset() }

// Seed reseeds the process-wide registry.
func Seed(seed uint64) { defaultRegistry.Seed(seed) }

// Calls reports the call count of name on the process-wide registry.
func Calls(name string) int64 { return defaultRegistry.Calls(name) }

// Fired reports the fire count of name on the process-wide registry.
func Fired(name string) int64 { return defaultRegistry.Fired(name) }

// ParseSpec parses one textual fault spec of the form
//
//	point=kind[,after=N][,prob=P][,times=N][,sleep=DUR][,msg=TEXT]
//
// where kind is "error", "panic" or "delay". Examples:
//
//	boost.round=panic,after=5     panic when round 6 starts
//	dist.allreduce=error,times=3  fail the first three allreduce steps
//	sched.worker=delay,sleep=10ms,prob=0.01
func ParseSpec(spec string) (name string, f Fault, err error) {
	eq := strings.IndexByte(spec, '=')
	if eq <= 0 || eq == len(spec)-1 {
		return "", Fault{}, fmt.Errorf("fault: spec %q not of the form point=kind[,opts]", spec)
	}
	name = strings.TrimSpace(spec[:eq])
	parts := strings.Split(spec[eq+1:], ",")
	switch strings.TrimSpace(parts[0]) {
	case "error":
		f.Kind = Error
	case "panic":
		f.Kind = Panic
	case "delay":
		f.Kind = Delay
	default:
		return "", Fault{}, fmt.Errorf("fault: unknown kind %q in spec %q", parts[0], spec)
	}
	for _, opt := range parts[1:] {
		kv := strings.SplitN(strings.TrimSpace(opt), "=", 2)
		if len(kv) != 2 {
			return "", Fault{}, fmt.Errorf("fault: malformed option %q in spec %q", opt, spec)
		}
		switch kv[0] {
		case "after":
			f.After, err = strconv.ParseInt(kv[1], 10, 64)
		case "times":
			f.Times, err = strconv.ParseInt(kv[1], 10, 64)
		case "prob":
			f.Prob, err = strconv.ParseFloat(kv[1], 64)
		case "sleep":
			f.Sleep, err = time.ParseDuration(kv[1])
		case "msg":
			f.Message = kv[1]
		default:
			return "", Fault{}, fmt.Errorf("fault: unknown option %q in spec %q", kv[0], spec)
		}
		if err != nil {
			return "", Fault{}, fmt.Errorf("fault: option %q in spec %q: %w", opt, spec, err)
		}
	}
	return name, f, nil
}

// EnableSpecs parses a semicolon-separated list of specs (see ParseSpec)
// and arms each on the process-wide registry. Every spec's point name is
// validated against the registered production points (RegisterPoint): an
// unknown name errors at arm time, listing the known points, instead of
// arming a fault that can never fire.
func EnableSpecs(specs string) error {
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, f, err := ParseSpec(spec)
		if err != nil {
			return err
		}
		if !IsKnownPoint(name) {
			return fmt.Errorf("fault: unknown injection point %q (known points: %s)",
				name, strings.Join(KnownPoints(), ", "))
		}
		Enable(name, f)
	}
	return nil
}
