// Command tsdbd runs the fleet's monitoring plane: it scrapes /metrics
// from the targets listed in a file-based service-discovery config
// (workflow step 1), answers expression queries, instant or over a range
// (GET /query), runs recording and SLO burn-rate alerting rules each
// scrape interval, and renders a self-contained fleet health dashboard
// (GET /dashboard).
//
// Its own /metrics endpoint leads with the daemon's self-telemetry
// (scrape/rule/eviction counters, stored-series and alert gauges)
// followed by the federation dump of every stored series. Firing alerts
// are pushed to an alarm store (-alarms) as "slo"-sourced alarms,
// landing in the same database the drift detector feeds. -pprof mounts
// /debug/pprof/.
//
// Usage:
//
//	tsdbd -sd sd.json [-addr :9090] [-interval 15s] [-retention 2h]
//	      [-max-samples 0] [-scrape-concurrency 8]
//	      [-rules rules.json | -default-slo-rules]
//	      [-slo-objective 0.99] [-slo-latency-ms 250]
//	      [-alarms http://alarms:7070] [-log-level info] [-pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/tsdb"
)

func main() {
	sd := flag.String("sd", "", "service-discovery JSON file (required)")
	addr := flag.String("addr", ":9090", "listen address")
	interval := flag.Duration("interval", 15*time.Second, "scrape interval")
	retention := flag.Duration("retention", 2*time.Hour, "drop samples older than this; 0 keeps everything")
	maxSamples := flag.Int("max-samples", 0, "hard cap on samples per series; 0 = unlimited")
	scrapeConc := flag.Int("scrape-concurrency", 8, "parallel target scrapes per cycle")
	rulesPath := flag.String("rules", "", "JSON recording/alerting rules file (hot-reloaded on change)")
	defaultSLO := flag.Bool("default-slo-rules", false, "load the built-in multi-window SLO burn-rate rules")
	sloObjective := flag.Float64("slo-objective", 0.99, "availability objective for -default-slo-rules (0,1)")
	sloLatencyMs := flag.Float64("slo-latency-ms", 250, "p99 latency objective in ms for -default-slo-rules")
	alarmsURL := flag.String("alarms", "", "alarm store base URL; firing alerts are pushed to POST /alarms")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ handlers")
	flag.Parse()
	if *sd == "" {
		fmt.Fprintln(os.Stderr, "tsdbd: -sd is required")
		os.Exit(2)
	}
	if *rulesPath != "" && *defaultSLO {
		fmt.Fprintln(os.Stderr, "tsdbd: -rules and -default-slo-rules are mutually exclusive")
		os.Exit(2)
	}
	if *defaultSLO && (*sloObjective <= 0 || *sloObjective >= 1) {
		fmt.Fprintln(os.Stderr, "tsdbd: -slo-objective must be in (0,1)")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdbd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, "tsdbd")

	db := tsdb.New()
	db.SetRetention(int64(retention.Seconds()))
	db.SetMaxSamplesPerSeries(*maxSamples)
	scraper := tsdb.NewScraper(db, *sd, *interval)
	scraper.Logger = obs.NewLogger(os.Stderr, level, "scraper")
	scraper.Concurrency = *scrapeConc

	var rules *tsdb.Rules
	if *rulesPath != "" || *defaultSLO {
		rules = tsdb.NewRules(db)
		rules.Logger = obs.NewLogger(os.Stderr, level, "rules")
		if *alarmsURL != "" {
			rules.Sink = quality.HTTPSink{URL: *alarmsURL}
		}
		if *rulesPath != "" {
			if err := rules.LoadFile(*rulesPath); err != nil {
				fmt.Fprintln(os.Stderr, "tsdbd:", err)
				os.Exit(2)
			}
		} else {
			if err := rules.Load(tsdb.DefaultSLORules(*sloObjective, *sloLatencyMs)); err != nil {
				fmt.Fprintln(os.Stderr, "tsdbd:", err)
				os.Exit(2)
			}
		}
	}

	reg := obs.NewRegistry()
	reg.CounterFunc("tsdb_scrapes_total", "Target scrapes attempted.", nil, func() uint64 {
		scrapes, _ := scraper.Stats()
		return uint64(scrapes)
	})
	reg.CounterFunc("tsdb_scrape_errors_total", "Target scrapes that failed.", nil, func() uint64 {
		_, errs := scraper.Stats()
		return uint64(errs)
	})
	reg.GaugeFunc("tsdb_stored_series", "Distinct series currently stored.", nil, func() float64 {
		return float64(db.NumSeries())
	})
	reg.CounterFunc("tsdb_evicted_samples_total", "Samples dropped by retention and per-series caps.", nil, db.EvictedSamples)
	if rules != nil {
		reg.CounterFunc("tsdb_rule_evals_total", "Rule evaluations attempted.", nil, rules.Evals)
		reg.CounterFunc("tsdb_rule_eval_failures_total", "Rule evaluations or reloads that failed.", nil, rules.EvalFailures)
		reg.CounterFunc("tsdb_rule_reloads_total", "Successful hot reloads of the rules file.", nil, rules.Reloads)
		reg.CounterFunc("tsdb_rule_alarms_total", "Firing alerts pushed to the alarm store.", nil, rules.AlarmsPushed)
		reg.GaugeFunc("tsdb_alerts_pending", "Alert instances currently pending.", nil, func() float64 {
			return float64(rules.PendingAlerts())
		})
		reg.GaugeFunc("tsdb_alerts_firing", "Alert instances currently firing.", nil, func() float64 {
			return float64(rules.FiringAlerts())
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go scraper.Run(ctx)
	if rules != nil {
		go func() {
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					rules.EvalOnce()
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/", &tsdb.Handler{DB: db, SelfMetrics: reg, Rules: rules})
	if *pprofOn {
		obs.RegisterPprof(mux)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	logger.Info("listening", "addr", *addr, "sd", *sd, "interval", *interval,
		"retention", *retention, "rules", *rulesPath, "default_slo", *defaultSLO,
		"alarms", *alarmsURL, "pprof", *pprofOn)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	scrapes, errs := scraper.Stats()
	logger.Info("stopped", "scrapes", scrapes, "scrape_errors", errs, "series", db.NumSeries())
}
