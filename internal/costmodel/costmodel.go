// Package costmodel implements the paper's cost-based scheduling model
// (Section 4.4): the unit application execution time cost is the
// weighted average of per-resource unit costs, weighted by the
// application's class composition —
//
//	UnitApplicationCost = α·cpu% + β·mem% + γ·io% + δ·net% + ε·idle%
//
// where α…ε are prices the resource provider sets and the percentages
// are the classifier's composition output.
package costmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/appclass"
)

// Rates are the per-class unit costs set by a resource provider, in
// price units per unit of execution time.
type Rates struct {
	CPU  float64 // α: CPU capacity price
	Mem  float64 // β: memory capacity price
	IO   float64 // γ: I/O capacity price
	Net  float64 // δ: network capacity price
	Idle float64 // ε: held-but-idle capacity price
}

// Validate rejects negative and non-finite prices: one NaN or infinite
// rate makes every cost and placement score priced with it NaN.
func (r Rates) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"cpu", r.CPU}, {"mem", r.Mem}, {"io", r.IO}, {"net", r.Net}, {"idle", r.Idle},
	} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("costmodel: %s rate %v is not a finite non-negative price", p.name, p.v)
		}
	}
	return nil
}

// ParseRates parses and validates the "cpu,mem,io,net,idle" unit prices
// (α..ε) that the tools' -rates flags take.
func ParseRates(spec string) (Rates, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 5 {
		return Rates{}, fmt.Errorf("rates must be 5 comma-separated numbers, got %q", spec)
	}
	var v [5]float64
	for i, p := range parts {
		var err error
		if v[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			return Rates{}, fmt.Errorf("rate %d: %w", i, err)
		}
	}
	r := Rates{CPU: v[0], Mem: v[1], IO: v[2], Net: v[3], Idle: v[4]}
	if err := r.Validate(); err != nil {
		return Rates{}, err
	}
	return r, nil
}

// Rate returns the price for a class (zero for unknown classes).
func (r Rates) Rate(c appclass.Class) float64 { return r.rate(c) }

// rate returns the price for a class.
func (r Rates) rate(c appclass.Class) float64 {
	switch c {
	case appclass.CPU:
		return r.CPU
	case appclass.Mem:
		return r.Mem
	case appclass.IO:
		return r.IO
	case appclass.Net:
		return r.Net
	case appclass.Idle:
		return r.Idle
	default:
		return 0
	}
}

// UnitCost computes the unit application cost of a class composition.
// Composition fractions must be in [0,1] and sum to at most ~1 (a
// composition summing to less is allowed: unobserved classes price at
// zero).
func UnitCost(composition map[appclass.Class]float64, rates Rates) (float64, error) {
	if err := rates.Validate(); err != nil {
		return 0, err
	}
	var total, fracSum float64
	for c, f := range composition {
		if !appclass.Valid(c) {
			return 0, fmt.Errorf("costmodel: invalid class %q in composition", c)
		}
		if f < 0 || f > 1 {
			return 0, fmt.Errorf("costmodel: composition fraction %v for %s outside [0,1]", f, c)
		}
		total += f * rates.rate(c)
		fracSum += f
	}
	if fracSum > 1.01 {
		return 0, fmt.Errorf("costmodel: composition sums to %v > 1", fracSum)
	}
	return total, nil
}

// RunCost prices a whole run: unit cost times execution time in hours.
func RunCost(composition map[appclass.Class]float64, execution time.Duration, rates Rates) (float64, error) {
	if execution < 0 {
		return 0, fmt.Errorf("costmodel: negative execution time %v", execution)
	}
	unit, err := UnitCost(composition, rates)
	if err != nil {
		return 0, err
	}
	return unit * execution.Hours(), nil
}

// Quote describes a priced run, for reports.
type Quote struct {
	App       string
	UnitCost  float64
	RunCost   float64
	Execution time.Duration
}

// QuoteRun builds a Quote for an application run.
func QuoteRun(app string, composition map[appclass.Class]float64, execution time.Duration, rates Rates) (Quote, error) {
	unit, err := UnitCost(composition, rates)
	if err != nil {
		return Quote{}, err
	}
	total, err := RunCost(composition, execution, rates)
	if err != nil {
		return Quote{}, err
	}
	return Quote{App: app, UnitCost: unit, RunCost: total, Execution: execution}, nil
}
