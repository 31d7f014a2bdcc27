package costmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
)

var testRates = Rates{CPU: 10, Mem: 8, IO: 6, Net: 4, Idle: 1}

func TestUnitCostPureClasses(t *testing.T) {
	cases := []struct {
		class appclass.Class
		want  float64
	}{
		{appclass.CPU, 10}, {appclass.Mem, 8}, {appclass.IO, 6},
		{appclass.Net, 4}, {appclass.Idle, 1},
	}
	for _, c := range cases {
		got, err := UnitCost(map[appclass.Class]float64{c.class: 1}, testRates)
		if err != nil {
			t.Fatalf("UnitCost(%s): %v", c.class, err)
		}
		if got != c.want {
			t.Errorf("UnitCost(%s) = %v, want %v", c.class, got, c.want)
		}
	}
}

func TestUnitCostWeightedAverage(t *testing.T) {
	comp := map[appclass.Class]float64{
		appclass.CPU: 0.5, appclass.IO: 0.3, appclass.Idle: 0.2,
	}
	got, err := UnitCost(comp, testRates)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*10 + 0.3*6 + 0.2*1
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("UnitCost = %v, want %v", got, want)
	}
}

func TestUnitCostValidation(t *testing.T) {
	if _, err := UnitCost(map[appclass.Class]float64{"weird": 1}, testRates); err == nil {
		t.Error("invalid class: want error")
	}
	if _, err := UnitCost(map[appclass.Class]float64{appclass.CPU: 1.5}, testRates); err == nil {
		t.Error("fraction > 1: want error")
	}
	if _, err := UnitCost(map[appclass.Class]float64{appclass.CPU: -0.1}, testRates); err == nil {
		t.Error("negative fraction: want error")
	}
	if _, err := UnitCost(map[appclass.Class]float64{appclass.CPU: 0.8, appclass.IO: 0.8}, testRates); err == nil {
		t.Error("overfull composition: want error")
	}
	if _, err := UnitCost(nil, Rates{CPU: -1}); err == nil {
		t.Error("negative rate: want error")
	}
}

func TestUnitCostEmptyComposition(t *testing.T) {
	got, err := UnitCost(nil, testRates)
	if err != nil || got != 0 {
		t.Errorf("UnitCost(nil) = (%v,%v), want (0,nil)", got, err)
	}
}

func TestRunCost(t *testing.T) {
	comp := map[appclass.Class]float64{appclass.CPU: 1}
	got, err := RunCost(comp, 30*time.Minute, testRates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-12 { // 10/hour * 0.5h
		t.Errorf("RunCost = %v, want 5", got)
	}
	if _, err := RunCost(comp, -time.Second, testRates); err == nil {
		t.Error("negative execution: want error")
	}
}

func TestQuoteRun(t *testing.T) {
	comp := map[appclass.Class]float64{appclass.Net: 1}
	q, err := QuoteRun("Sftp", comp, time.Hour, testRates)
	if err != nil {
		t.Fatal(err)
	}
	if q.App != "Sftp" || q.UnitCost != 4 || math.Abs(q.RunCost-4) > 1e-12 {
		t.Errorf("Quote = %+v", q)
	}
	if _, err := QuoteRun("x", map[appclass.Class]float64{"bad": 1}, time.Hour, testRates); err == nil {
		t.Error("invalid composition: want error")
	}
}

func TestParseRates(t *testing.T) {
	cases := []struct {
		spec string
		want Rates
		err  string // a substring of the error; "" for success
	}{
		{spec: "10,8,6,4,1", want: testRates},
		{spec: " 10, 8 ,6,\t4 , 1 ", want: testRates},
		{spec: "0,0,0,0,0"},
		{spec: "", err: "5 comma-separated numbers"},
		{spec: "1,2,3", err: "5 comma-separated numbers"},
		{spec: "1,2,3,4,5,6", err: "5 comma-separated numbers"},
		{spec: "1,2,3,4,x", err: "rate 4"},
		{spec: "1,,3,4,5", err: "rate 1"},
		{spec: "NaN,1,1,1,1", err: "cpu rate NaN"},
		{spec: "1,1,1,1,Inf", err: "idle rate +Inf"},
		{spec: "1,1,-Inf,1,1", err: "io rate -Inf"},
		{spec: "1,-0.5,1,1,1", err: "mem rate -0.5"},
	}
	for _, c := range cases {
		got, err := ParseRates(c.spec)
		switch {
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("ParseRates(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseRates(%q) error = %v, want one containing %q", c.spec, err, c.err)
		}
	}
}

func TestNonFiniteRatesRefused(t *testing.T) {
	comp := map[appclass.Class]float64{appclass.CPU: 1}
	for _, r := range []Rates{
		{CPU: math.NaN()},
		{Idle: math.Inf(1)},
		{Net: math.Inf(-1)},
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", r)
		}
		if cost, err := UnitCost(comp, r); err == nil {
			t.Errorf("UnitCost under %+v = %v, want an error", r, cost)
		}
	}
}
