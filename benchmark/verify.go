package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// checker holds the reference answers for one run: the same model
// files the servers loaded, and each source's features at each degrade
// level, extracted without a budget.
type checker struct {
	models  *serve.Models
	sources []string
	feats   map[featKey]stylometry.Features
}

type featKey struct {
	src   int
	level stylometry.DegradeLevel
}

func newChecker(modelDir string, sources []string) (*checker, error) {
	reg, err := serve.NewRegistry(modelDir)
	if err != nil {
		return nil, err
	}
	return &checker{models: reg.Current(), sources: sources, feats: map[featKey]stylometry.Features{}}, nil
}

func (c *checker) features(src int, lvl stylometry.DegradeLevel) (stylometry.Features, error) {
	k := featKey{src, lvl}
	if f, ok := c.feats[k]; ok {
		return f, nil
	}
	f, got, err := stylometry.ExtractDegraded(context.Background(), c.sources[src], lvl)
	if err != nil {
		return nil, err
	}
	if got != lvl {
		return nil, fmt.Errorf("reference extraction at level %d came back at %d", lvl, got)
	}
	c.feats[k] = f
	return f, nil
}

// check compares one 200 answer with the reference for its source at
// the level it reports. It returns nil when label, probabilities,
// confidence and level all match exactly.
func (c *checker) check(o outcome) error {
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d", o.status)
	}
	switch o.req.endpoint {
	case "attribute":
		var got serve.AttributeResponse
		if err := json.Unmarshal(o.body, &got); err != nil {
			return err
		}
		lvl := stylometry.DegradeLevel(got.DegradeLevel)
		if o.level != got.DegradeLevel {
			return fmt.Errorf("header level %d, body level %d", o.level, got.DegradeLevel)
		}
		oracle, eff := c.models.OracleFor(lvl)
		if oracle == nil || eff != lvl {
			return fmt.Errorf("no oracle rung answers at level %d", lvl)
		}
		f, err := c.features(o.req.src, lvl)
		if err != nil {
			return err
		}
		proba, best := oracle.ProbaFeatures(f)
		conf := proba[best]
		if cal := oracle.Calibration(); cal > 0 {
			conf *= cal
		}
		if got.Author != best || got.Confidence != conf || len(got.Proba) != len(proba) {
			return fmt.Errorf("level %d: got %s (%.6g), want %s (%.6g)", lvl, got.Author, got.Confidence, best, conf)
		}
		for a, p := range proba {
			if got.Proba[a] != p {
				return fmt.Errorf("level %d: proba[%s] = %v, want %v", lvl, a, got.Proba[a], p)
			}
		}
	case "detect":
		var got serve.DetectResponse
		if err := json.Unmarshal(o.body, &got); err != nil {
			return err
		}
		lvl := stylometry.DegradeLevel(got.DegradeLevel)
		if o.level != got.DegradeLevel {
			return fmt.Errorf("header level %d, body level %d", o.level, got.DegradeLevel)
		}
		det, eff := c.models.DetectorFor(lvl)
		if det == nil || eff != lvl {
			return fmt.Errorf("no detector rung answers at level %d", lvl)
		}
		f, err := c.features(o.req.src, lvl)
		if err != nil {
			return err
		}
		verdict, conf := det.DetectFeatures(f)
		if got.ChatGPT != verdict || got.Confidence != conf {
			return fmt.Errorf("level %d: got %v (%.6g), want %v (%.6g)", lvl, got.ChatGPT, got.Confidence, verdict, conf)
		}
	default:
		return fmt.Errorf("unknown endpoint %q", o.req.endpoint)
	}
	return nil
}
