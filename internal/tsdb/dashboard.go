// Fleet health dashboard: a single self-contained HTML page rendered
// entirely server-side — inline CSS, inline SVG sparklines, zero
// scripts, zero external assets — so it works from curl, an air-gapped
// lab, or a browser pointed at tsdbd. Panels are driven by the query
// engine over the last 30 minutes; burn-rate gauges and the alert
// table come from the rules engine.
package tsdb

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strings"
	"time"
)

// dashWindow is the sparkline time window and step.
const (
	dashWindow = 30 * time.Minute
	dashStep   = 60 // seconds per sparkline point
	sparkW     = 240
	sparkH     = 48
)

// dashPanelSpec declares one sparkline panel: a title, the expression
// evaluated as a range query, and a unit suffix for the latest value.
type dashPanelSpec struct {
	Title string
	Expr  string
	Unit  string
}

// dashboardPanels are the fleet views the issue calls for: per-backend
// QPS, error rate, p99 latency, queue depth, and drifting-environment
// count.
var dashboardPanels = []dashPanelSpec{
	{"Per-backend QPS", `sum by (instance) (rate(env2vec_serve_requests_total[5m]))`, " req/s"},
	{"Proxy error ratio", `(sum(rate(env2vec_proxy_requests_total[5m])) - sum(rate(env2vec_proxy_requests_total{outcome="served"}[5m]))) / sum(rate(env2vec_proxy_requests_total[5m]))`, ""},
	{"p99 serve latency", `histogram_quantile(0.99, sum by (le, instance) (rate(env2vec_serve_request_latency_ms_bucket[5m])))`, " ms"},
	{"Queue depth", `env2vec_serve_queue_depth`, ""},
	{"Drifting environments", `count(env2vec_quality_exceed_rate > 0.5)`, " envs"},
}

// burnWindows pairs each recorded burn-rate window with the threshold
// of the alert it participates in.
var burnWindows = []struct {
	Window    string
	Threshold float64
}{
	{"5m", 14.4}, {"1h", 14.4}, {"30m", 6}, {"6h", 6},
}

type dashSeries struct {
	Name   string
	Points string // SVG polyline points
	Latest string
}

type dashPanel struct {
	Title  string
	Unit   string
	Series []dashSeries
}

type burnGauge struct {
	Window    string
	Threshold float64
	Display   string
	WidthPct  float64 // gauge fill, 0..100
	Class     string  // ok | warn | crit
	HasData   bool
}

type dashData struct {
	RenderedAt string
	NumSeries  int
	Alerts     []ActiveAlert
	Burn       []burnGauge
	Panels     []dashPanel
}

// sparkPoints scales samples into the sparkline viewbox. The y-range is
// padded so a flat series draws mid-box rather than hugging an edge.
func sparkPoints(samples []Sample, from, to int64) string {
	if len(samples) == 0 || to <= from {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		lo, hi = math.Min(lo, s.V), math.Max(hi, s.V)
	}
	if hi == lo {
		hi, lo = hi+1, lo-1
	}
	pad := (hi - lo) * 0.1
	hi, lo = hi+pad, lo-pad
	var b strings.Builder
	for i, s := range samples {
		x := float64(s.T-from) / float64(to-from) * sparkW
		y := sparkH - (s.V-lo)/(hi-lo)*sparkH
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f,%.1f", x, y)
	}
	return b.String()
}

// seriesName renders a label set minus __name__ as its fingerprint
// ("k=v,k2=v2"), or "fleet" for the empty aggregate.
func seriesName(l Labels) string {
	if name := dropName(l).Fingerprint(); name != "" {
		return name
	}
	return "fleet"
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func (h *Handler) buildDashboard(now int64) dashData {
	d := dashData{
		RenderedAt: time.Unix(now, 0).UTC().Format(time.RFC3339),
		NumSeries:  h.DB.NumSeries(),
	}
	if h.Rules != nil {
		d.Alerts = h.Rules.ActiveAlerts()
	}
	for _, bw := range burnWindows {
		g := burnGauge{Window: bw.Window, Threshold: bw.Threshold, Display: "no data", Class: "ok"}
		if vec, err := h.DB.Instant("slo:serve:burn_rate:"+bw.Window, now); err == nil && len(vec) > 0 {
			v := vec[0].V
			g.HasData = true
			g.Display = formatValue(v) + "x"
			g.WidthPct = math.Min(100, math.Max(0, v/(bw.Threshold*2)*100))
			switch {
			case v >= bw.Threshold:
				g.Class = "crit"
			case v >= bw.Threshold/2:
				g.Class = "warn"
			}
		}
		d.Burn = append(d.Burn, g)
	}
	from := now - int64(dashWindow.Seconds())
	for _, spec := range dashboardPanels {
		panel := dashPanel{Title: spec.Title, Unit: spec.Unit}
		series, err := h.DB.Range(spec.Expr, from, now, dashStep)
		if err == nil {
			for _, s := range series {
				if len(s.Samples) == 0 {
					continue
				}
				panel.Series = append(panel.Series, dashSeries{
					Name:   seriesName(s.Labels),
					Points: sparkPoints(s.Samples, from, now),
					Latest: formatValue(s.Samples[len(s.Samples)-1].V) + spec.Unit,
				})
			}
		}
		d.Panels = append(d.Panels, panel)
	}
	return d
}

func (h *Handler) dashboard(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashTemplate.Execute(w, h.buildDashboard(h.now()))
}

var dashTemplate = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="15">
<title>env2vec fleet health</title>
<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 1.5rem; background: #14161a; color: #e6e8eb; }
h1 { font-size: 1.2rem; margin: 0 0 .25rem; }
h2 { font-size: .95rem; margin: 1.25rem 0 .5rem; color: #9aa3ad; text-transform: uppercase; letter-spacing: .06em; }
.meta { color: #7a828c; font-size: .8rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #2a2e35; font-size: .85rem; }
.state-firing { color: #ff6b6b; font-weight: 600; }
.state-pending { color: #ffc46b; font-weight: 600; }
.none { color: #5c9960; }
.gauges { display: flex; gap: 1rem; flex-wrap: wrap; }
.gauge { background: #1d2026; border: 1px solid #2a2e35; border-radius: 6px; padding: .6rem .8rem; min-width: 11rem; }
.gauge .bar { height: 6px; background: #2a2e35; border-radius: 3px; margin-top: .4rem; overflow: hidden; }
.gauge .fill { height: 100%; }
.ok .fill { background: #5c9960; }
.warn .fill { background: #ffc46b; }
.crit .fill { background: #ff6b6b; }
.gauge .val { font-size: 1.1rem; font-weight: 600; }
.panels { display: flex; gap: 1rem; flex-wrap: wrap; }
.panel { background: #1d2026; border: 1px solid #2a2e35; border-radius: 6px; padding: .6rem .8rem; }
.series { display: flex; align-items: center; gap: .6rem; margin: .25rem 0; }
.series svg { background: #14161a; border-radius: 3px; }
.sname { color: #9aa3ad; font-size: .78rem; min-width: 9rem; }
.sval { font-weight: 600; font-size: .85rem; }
.empty { color: #5b626b; font-size: .8rem; font-style: italic; }
</style>
</head>
<body>
<h1>env2vec fleet health</h1>
<p class="meta">rendered {{.RenderedAt}} &middot; {{.NumSeries}} stored series &middot; auto-refreshes every 15s</p>

<h2>Alerts</h2>
{{if .Alerts}}
<table>
<tr><th>state</th><th>name</th><th>labels</th><th>value</th><th>active since</th><th>summary</th></tr>
{{range .Alerts}}
<tr>
  <td class="state-{{.State}}">{{.State}}</td>
  <td>{{.Name}}</td>
  <td>{{range $k, $v := .Labels}}{{$k}}={{$v}} {{end}}</td>
  <td>{{printf "%.3g" .Value}}</td>
  <td>{{.ActiveSince}}</td>
  <td>{{index .Annotations "summary"}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="none">no pending or firing alerts</p>{{end}}

<h2>SLO burn rate</h2>
<div class="gauges">
{{range .Burn}}
<div class="gauge {{.Class}}">
  <div>{{.Window}} window <span class="meta">(alert at {{.Threshold}}x)</span></div>
  <div class="val">{{.Display}}</div>
  <div class="bar"><div class="fill" style="width: {{printf "%.0f" .WidthPct}}%"></div></div>
</div>
{{end}}
</div>

<h2>Fleet</h2>
<div class="panels">
{{range .Panels}}
<div class="panel">
  <div>{{.Title}}</div>
  {{if .Series}}
  {{range .Series}}
  <div class="series">
    <span class="sname">{{.Name}}</span>
    <svg width="240" height="48" viewBox="0 0 240 48" preserveAspectRatio="none"><polyline points="{{.Points}}" fill="none" stroke="#6ba8ff" stroke-width="1.5"/></svg>
    <span class="sval">{{.Latest}}</span>
  </div>
  {{end}}
  {{else}}<div class="empty">no data in window</div>{{end}}
</div>
{{end}}
</div>
</body>
</html>
`))
