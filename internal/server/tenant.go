package server

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"gpmetis/internal/obs"
)

// DefaultTenant is the tenant name used when a submission carries none.
// A TenantsConfig entry under this name overrides the built-in defaults
// for anonymous traffic and for tenants the config does not mention.
const DefaultTenant = "default"

// maxTenants bounds the tenant table against label-cardinality abuse:
// once this many distinct tenant names exist, unknown names share the
// default tenant's state instead of minting new per-tenant series.
const maxTenants = 256

// TenantConfig is one tenant's admission contract. Zero fields take the
// documented defaults, so `{"weight": 3}` is a complete entry.
type TenantConfig struct {
	// Weight is the tenant's share of service under contention: the fair
	// queue schedules so tenants receive service, counted in input
	// size, in proportion to their weights (default 1).
	Weight float64 `json:"weight,omitempty"`
	// MaxQueued caps how many of this tenant's jobs may sit in the queue
	// at once; submissions beyond it get 429 {"code":"tenant_quota"}.
	// 0 means no per-tenant cap (the global QueueCap still applies).
	MaxQueued int `json:"max_queued,omitempty"`
	// RatePerSec is a token-bucket admission rate limit; submissions
	// arriving with an empty bucket get 429 {"code":"rate_limited"}.
	// 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket's capacity (default max(1, RatePerSec)).
	Burst float64 `json:"burst,omitempty"`
}

// withDefaults resolves the zero fields.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = math.Max(1, c.RatePerSec)
	}
	return c
}

// TenantsConfig maps tenant name to contract — the parsed form of the
// gpmetisd -tenants JSON file. The "default" entry, when present,
// replaces the built-in defaults for unnamed and unlisted tenants.
type TenantsConfig map[string]TenantConfig

// LoadTenantsFile reads a TenantsConfig from a JSON file:
//
//	{
//	  "default": {"weight": 1, "max_queued": 8, "rate_per_sec": 20},
//	  "batch":   {"weight": 1, "max_queued": 32},
//	  "online":  {"weight": 8, "max_queued": 16, "rate_per_sec": 200, "burst": 400}
//	}
func LoadTenantsFile(path string) (TenantsConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg TenantsConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	for name, tc := range cfg {
		if tc.Weight < 0 || tc.MaxQueued < 0 || tc.RatePerSec < 0 || tc.Burst < 0 {
			return nil, fmt.Errorf("tenants file %s: tenant %q has a negative field", path, name)
		}
	}
	return cfg, nil
}

// tenantState is one tenant's live admission state: its resolved
// contract, token bucket, the label set of its per-tenant series in the
// server's registry, and — guarded by the fair queue's lock, not this
// one — its virtual-time tag and queued count.
type tenantState struct {
	name   string
	cfg    TenantConfig
	labels []obs.Label

	mu       sync.Mutex
	tokens   float64
	lastFill time.Time

	// Scheduling state owned by fairQueue.mu (see fairqueue.go):
	// lastFinish is the tenant's latest virtual finish tag, queued its
	// live queue occupancy.
	lastFinish float64
	queued     int
}

// allow consumes one admission token. It reports whether the submission
// may proceed and, when not, how long until the bucket refills a token.
func (t *tenantState) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if t.cfg.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastFill.IsZero() {
		t.tokens = t.cfg.Burst
	} else if dt := now.Sub(t.lastFill).Seconds(); dt > 0 {
		t.tokens = math.Min(t.cfg.Burst, t.tokens+dt*t.cfg.RatePerSec)
	}
	t.lastFill = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	wait := (1 - t.tokens) / t.cfg.RatePerSec
	return false, time.Duration(wait * float64(time.Second))
}

// tenantSeries are the per-tenant registry series, each labeled
// {tenant=name}, with their HELP text. Every tenant has all of them
// from the moment it is first seen.
var tenantSeries = []struct{ name, help string }{
	{"tenant.weight", "Configured fair-share weight."},
	{"tenant.queued", "Jobs currently held in the fair queue."},
	{"tenant.submitted", "Jobs ever submitted."},
	{"tenant.completed", "Jobs that reached done."},
	{"tenant.shed", "Queued jobs pushed out of the full queue by another tenant's submission."},
	{"tenant.rejected", "Submissions refused by admission control."},
	{"tenant.served_modeled_seconds", "Modeled GPU seconds of the runs served for the tenant."},
}

// tenantTable resolves tenant names to live states, minting states
// lazily so unconfigured tenants still get quota enforcement (under the
// default contract) and per-tenant metrics.
type tenantTable struct {
	mu     sync.Mutex
	reg    *obs.Registry
	def    TenantConfig
	byName map[string]*tenantState
}

func newTenantTable(cfg TenantsConfig, reg *obs.Registry) *tenantTable {
	tt := &tenantTable{
		reg:    reg,
		def:    TenantConfig{}.withDefaults(),
		byName: map[string]*tenantState{},
	}
	for _, ts := range tenantSeries {
		reg.Describe(ts.name, ts.help)
	}
	if dc, ok := cfg[DefaultTenant]; ok {
		tt.def = dc.withDefaults()
	}
	tt.mint(DefaultTenant, tt.def)
	for name, tc := range cfg {
		if name == DefaultTenant {
			continue
		}
		tt.mint(name, tc.withDefaults())
	}
	return tt
}

// mint adds a tenant and declares its series; the caller holds tt.mu or
// owns tt exclusively.
func (tt *tenantTable) mint(name string, cfg TenantConfig) *tenantState {
	t := &tenantState{name: name, cfg: cfg, labels: []obs.Label{{Key: "tenant", Value: name}}}
	for _, ts := range tenantSeries {
		tt.reg.AddWith(ts.name, t.labels, 0)
	}
	tt.reg.SetWith("tenant.weight", t.labels, cfg.Weight)
	tt.byName[name] = t
	return t
}

// state returns the live state for a tenant name ("" means the default
// tenant), creating it under the default contract on first sight. Past
// maxTenants distinct names, unknown tenants share the default state.
func (tt *tenantTable) state(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t, ok := tt.byName[name]; ok {
		return t
	}
	if len(tt.byName) >= maxTenants {
		return tt.byName[DefaultTenant]
	}
	return tt.mint(name, tt.def)
}

// snapshot renders every known tenant's status, sorted by name, for the
// ops view, reading its numbers from the registry.
func (tt *tenantTable) snapshot() []TenantStatus {
	tt.mu.Lock()
	states := make([]*tenantState, 0, len(tt.byName))
	for _, t := range tt.byName {
		states = append(states, t)
	}
	tt.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	out := make([]TenantStatus, 0, len(states))
	for _, t := range states {
		get := func(name string) float64 { return tt.reg.GetWith(name, t.labels) }
		out = append(out, TenantStatus{
			Name:                 t.name,
			Weight:               t.cfg.Weight,
			MaxQueued:            t.cfg.MaxQueued,
			Queued:               int(get("tenant.queued")),
			Submitted:            int64(get("tenant.submitted")),
			Completed:            int64(get("tenant.completed")),
			Shed:                 int64(get("tenant.shed")),
			Rejected:             int64(get("tenant.rejected")),
			ServedModeledSeconds: get("tenant.served_modeled_seconds"),
		})
	}
	return out
}
