// appclassd control-plane dashboard. Pure browser JS, no dependencies:
// polls /v1/status, /v1/classes, /v1/vms and /v1/runs and renders them.
"use strict";

const CLASSES = ["idle", "io", "cpu", "net", "mem"];
const COLORS = {
  idle: "var(--idle)", io: "var(--io)", cpu: "var(--cpu)",
  net: "var(--net)", mem: "var(--mem)", unknown: "var(--unknown)",
};
const REFRESH_MS = 3000;

const $ = (id) => document.getElementById(id);

// esc HTML-escapes a value before it is interpolated into an innerHTML
// template. VM and application names, model ids and timestamps all come
// from the untrusted ingest API, so anything reaching innerHTML without
// this is stored XSS.
function esc(v) {
  return String(v ?? "").replace(/[&<>"']/g, (ch) => ({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;",
  }[ch]));
}

function fmtCount(n) {
  if (n >= 1e9) return (n / 1e9).toFixed(1) + "G";
  if (n >= 1e6) return (n / 1e6).toFixed(1) + "M";
  if (n >= 1e3) return (n / 1e3).toFixed(1) + "k";
  return String(n);
}

function fmtBytes(n) {
  const units = ["B", "KiB", "MiB", "GiB", "TiB"];
  let i = 0;
  while (n >= 1024 && i < units.length - 1) { n /= 1024; i++; }
  return n.toFixed(i ? 1 : 0) + " " + units[i];
}

function fmtDuration(secs) {
  if (secs < 90) return secs.toFixed(0) + "s";
  if (secs < 5400) return (secs / 60).toFixed(0) + "m";
  if (secs < 129600) return (secs / 3600).toFixed(1) + "h";
  return (secs / 86400).toFixed(1) + "d";
}

function classTag(cls) {
  if (!cls) return "";
  const span = document.createElement("span");
  span.className = "class-tag class-" + cls;
  span.textContent = cls;
  return span.outerHTML;
}

function compBar(comp) {
  if (!comp) return "";
  const parts = Object.entries(comp)
    .filter(([, f]) => f > 0.005)
    .sort((a, b) => b[1] - a[1])
    .map(([c, f]) =>
      `<span style="width:${(f * 100).toFixed(1)}%;background:${COLORS[c] || "var(--idle)"}" title="${esc(c)} ${(f * 100).toFixed(0)}%"></span>`);
  return `<div class="compbar">${parts.join("")}</div>`;
}

function setPill(el, text, tone) {
  el.textContent = text;
  el.className = "pill" + (tone ? " " + tone : "");
}

async function getJSON(path) {
  const resp = await fetch(path, { cache: "no-store" });
  if (!resp.ok) throw new Error(path + " -> " + resp.status);
  return resp.json();
}

// ---- status + cards --------------------------------------------------

// The cards read the /metricsz series that /v1/status carries under
// metrics: an unlabeled family is its value, a labeled one a list of
// {labels, value}, and a family is absent while its subsystem is off.
async function refreshStatus() {
  const st = await getJSON("../v1/status");
  const m = st.metrics;
  setPill($("uptime"), "up " + fmtDuration(m.appclassd_uptime_seconds));
  const durTone = { journaled: "ok", none: "warn", degraded: "bad" }[st.durability];
  setPill($("durability"), "durability: " + st.durability, durTone);
  // The breaker position means something only once the poll loop has
  // tried a poll; a push-only daemon never does.
  if (m.appclassd_polls_total === 0) {
    setPill($("breaker"), "poll: off");
  } else {
    const state = m.appclassd_poll_breaker_state;
    const names = ["closed", "half-open", "open"];
    setPill($("breaker"), "breaker: " + names[state], ["ok", "warn", "bad"][state]);
  }
  const model = m.appclassd_model_active_info;
  setPill($("model"), "model: " + (model ? model[0].labels.id : "n/a"));
  $("refreshed").textContent = "refreshed " + new Date().toLocaleTimeString();

  $("stat-sessions").textContent = fmtCount(m.appclassd_sessions_active);
  $("stat-ingested").textContent = fmtCount(m.appclassd_snapshots_ingested_total);
  $("stat-records").textContent = fmtCount(m.appclassd_appdb_live_records);
  $("stat-apps").textContent = fmtCount(m.appclassd_appdb_apps);
  if (m.appclassd_appdb_segments !== undefined) {
    $("card-store").hidden = false;
    $("stat-segments").textContent = m.appclassd_appdb_segments;
    $("stat-bytes").textContent = fmtBytes(m.appclassd_appdb_bytes);
  }
  const placement = m.appclassd_hosts !== undefined;
  if (placement) {
    $("card-placement").hidden = false;
    $("stat-hosts").textContent = m.appclassd_hosts;
    $("stat-placements").textContent = m.appclassd_placements_active;
  }
  $("advice-section").hidden = !placement;
}

async function refreshClassMix() {
  const data = await getJSON("../v1/classes");
  renderClassMix(data.classes || {});
}

function renderClassMix(mix) {
  const host = $("classmix");
  const total = Object.values(mix).reduce((a, b) => a + b, 0);
  const rows = CLASSES.concat(["unknown"]).filter((c) => mix[c]);
  host.innerHTML = rows.length === 0
    ? '<p class="muted">No classified sessions yet.</p>'
    : rows.map((c) => {
        const n = mix[c];
        const pct = total ? (100 * n / total) : 0;
        return `<div class="bar-row"><div class="name">${c}</div>` +
          `<div class="track"><div class="fill" style="width:${pct.toFixed(1)}%;background:${COLORS[c]}"></div></div>` +
          `<div class="count">${n}</div></div>`;
      }).join("");
}

// ---- live sessions ---------------------------------------------------

async function refreshSessions() {
  const data = await getJSON("../v1/vms");
  const tbody = $("sessions").querySelector("tbody");
  const vms = data.vms || [];
  $("sessions-empty").hidden = vms.length > 0;
  tbody.innerHTML = vms.map((vm) => `<tr>
    <td class="mono">${esc(vm.vm)}</td>
    <td>${classTag(vm.class)}</td>
    <td>${classTag(vm.verdict)}</td>
    <td>${vm.unknown_fraction ? (100 * vm.unknown_fraction).toFixed(0) + "%" : ""}</td>
    <td>${esc(vm.phases || "")}</td>
    <td>${fmtCount(vm.snapshots)}</td>
    <td>${vm.drift ? vm.drift.toFixed(3) : "0"}</td>
    <td>${vm.gaps ? esc(vm.gaps) + " (" + fmtDuration(vm.gap_s) + ")" : ""}</td>
    <td class="muted">${esc(vm.last_seen)}</td>
  </tr>`).join("");
}

// ---- finalized runs (paginated) --------------------------------------

// cursorStack holds the cursor that produced each page, so "newer" can
// walk back; cursors[0] is always 0 (the newest page).
let cursorStack = [0];
let nextCursor = 0;

function runsQuery() {
  const params = new URLSearchParams();
  const cls = $("filter-class").value;
  const verdict = $("filter-verdict").value;
  if (cls) params.set("class", cls);
  if (verdict) params.set("verdict", verdict);
  const cursor = cursorStack[cursorStack.length - 1];
  if (cursor) params.set("cursor", String(cursor));
  params.set("limit", "15");
  return "../v1/runs?" + params.toString();
}

async function refreshRuns() {
  const data = await getJSON(runsQuery());
  nextCursor = data.next_cursor || 0;
  $("runs-prev").disabled = cursorStack.length <= 1;
  $("runs-next").disabled = nextCursor === 0;
  const runs = data.runs || [];
  $("runs-empty").hidden = runs.length > 0;
  const tbody = $("runs").querySelector("tbody");
  tbody.innerHTML = runs.map((r) => `<tr>
    <td class="mono">${esc(r.app)}</td>
    <td>${classTag(r.class)}</td>
    <td>${classTag(r.verdict)}</td>
    <td>${compBar(r.composition)}</td>
    <td>${fmtDuration(r.execution_s)}</td>
    <td>${fmtCount(r.samples)}</td>
    <td class="mono muted">${esc(r.model || "")}</td>
    <td>${r.matched_app ? esc(r.matched_app) + " (" + r.match_score.toFixed(2) + ")" : ""}</td>
    <td class="muted">${esc(r.finalized_at || "")}</td>
  </tr>`).join("");
}

// ---- placement advice ------------------------------------------------

async function refreshAdvice() {
  if ($("advice-section").hidden) return;
  try {
    const data = await getJSON("../v1/placements/advice");
    $("advice").textContent = JSON.stringify(data, null, 2);
  } catch {
    $("advice").textContent = "advice unavailable";
  }
}

// ---- wiring ----------------------------------------------------------

function resetRuns() {
  cursorStack = [0];
  refreshRuns().catch(console.error);
}

for (const c of CLASSES) {
  const opt = document.createElement("option");
  opt.value = c;
  opt.textContent = c;
  $("filter-class").appendChild(opt);
}
for (const c of CLASSES) {
  const opt = document.createElement("option");
  opt.value = c;
  opt.textContent = c;
  $("filter-verdict").appendChild(opt);
}
$("filter-class").addEventListener("change", resetRuns);
$("filter-verdict").addEventListener("change", resetRuns);
$("runs-next").addEventListener("click", () => {
  if (nextCursor) { cursorStack.push(nextCursor); refreshRuns().catch(console.error); }
});
$("runs-prev").addEventListener("click", () => {
  if (cursorStack.length > 1) { cursorStack.pop(); refreshRuns().catch(console.error); }
});

function tick() {
  refreshStatus().catch(console.error);
  refreshClassMix().catch(console.error);
  refreshSessions().catch(console.error);
  refreshRuns().catch(console.error);
  refreshAdvice().catch(console.error);
}

tick();
setInterval(tick, REFRESH_MS);
