package main

import (
	"fmt"
	"reflect"

	"apuama"
)

// nodes is the cluster size every workload runs at.
const nodes = 4

// slowLogSize bounds the traced run's slow log; it holds every query of
// a traced phase so each op's span tree can be joined.
const slowLogSize = 1 << 15

// clusterConfig is the only apuama.Config the benchmark opens: the
// library defaults at 4 nodes, plus tracing in the traced run.
func clusterConfig(traced bool) apuama.Config {
	cfg := apuama.Config{Nodes: nodes}
	if traced {
		cfg.Trace = true
		cfg.SlowLogSize = slowLogSize
	}
	return cfg
}

// checkDefaults refuses a config that sets any field but Nodes (and, in
// the traced run, Trace and SlowLogSize): every number the benchmark
// reports is a number about the library's defaults.
func checkDefaults(cfg apuama.Config, traced bool) error {
	allowed := map[string]bool{"Nodes": true}
	if traced {
		allowed["Trace"], allowed["SlowLogSize"] = true, true
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !allowed[name] && !v.Field(i).IsZero() {
			return fmt.Errorf("defaults guard: workload sets apuama.Config.%s", name)
		}
	}
	return nil
}

// openCluster opens a cluster after the defaults guard passes.
func openCluster(traced bool) (*apuama.Cluster, error) {
	cfg := clusterConfig(traced)
	if err := checkDefaults(cfg, traced); err != nil {
		return nil, err
	}
	return apuama.Open(cfg)
}
