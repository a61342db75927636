//! The journal's wire format: one compact JSON object per event, written
//! straight from the event's fields.
//!
//! [`Event::write_json`] produces the bytes `serde_json::to_string`
//! produces for the derived `Serialize` — externally tagged, fields in
//! declaration order, floats and integers as `Display` prints them with
//! non-finite floats as `null`, strings escaped as the workspace's
//! `serde_json` escapes them — without building the intermediate
//! `Content` tree and its owned key per field. The derived impl stays as
//! the oracle the tests below pin this writer to, byte for byte.

use crate::{Event, ProbeKind};
use std::fmt::Write as _;

/// Writes the fields of one `{"Variant":{...}}` object in order.
struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Object<'a> {
    fn open(out: &'a mut String, variant: &str) -> Self {
        out.push_str("{\"");
        out.push_str(variant);
        out.push_str("\":{");
        Object { out, first: true }
    }

    /// Writes `"name":` (after a comma unless first). Field names are
    /// plain identifiers and need no escaping.
    fn key(&mut self, name: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        self.out
    }

    fn float(mut self, name: &str, v: f64) -> Self {
        write_float(v, self.key(name));
        self
    }

    fn int(mut self, name: &str, v: impl Into<u64>) -> Self {
        push_digits(v.into(), 1, self.key(name));
        self
    }

    fn flag(mut self, name: &str, v: bool) -> Self {
        self.key(name).push_str(if v { "true" } else { "false" });
        self
    }

    fn text(mut self, name: &str, v: &str) -> Self {
        write_escaped(v, self.key(name));
        self
    }

    fn close(self) {
        self.out.push_str("}}");
    }
}

/// Below this magnitude a double's spacing is under 2⁻¹³ ≈ 1.2·10⁻⁴, so
/// at most one decimal with ≤ 3 fractional digits lies within half a
/// spacing of it.
const GRID_LIMIT: f64 = (1u64 << 40) as f64;

/// Writes `v` as `Display` (`{}`) does — the shortest decimal that
/// reads back as `v`, in fixed notation — or `null` when not finite.
///
/// Most journal floats are simulation times and step lengths on a
/// millisecond grid, and those skip the general shortest-digits search:
/// if `v` is the double nearest `k / 10^d` for the smallest such
/// `d ≤ 3`, then (below [`GRID_LIMIT`]) no decimal with fewer digits
/// reads back as `v` and no other one with `d` digits does, so the
/// shortest decimal is `k / 10^d` itself, printed digit for digit.
fn write_float(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v.abs() < GRID_LIMIT {
        for (digits, scale) in [(0, 1u64), (1, 10), (2, 100), (3, 1000)] {
            // Rounds half up by a cast, not a `round` call: the two differ
            // only near half-integers, where the test below fails for both.
            let k = (v.abs() * scale as f64 + 0.5) as u64;
            if k as f64 / scale as f64 == v.abs() {
                if v.is_sign_negative() {
                    out.push('-');
                }
                push_digits(k / scale, 1, out);
                if digits > 0 {
                    out.push('.');
                    push_digits(k % scale, digits, out);
                }
                return;
            }
        }
    }
    let _ = write!(out, "{v}");
}

/// Appends the decimal digits of `n`, zero-padded to at least `width`
/// (what `{n:0width$}` prints), without going through `fmt`.
fn push_digits(mut n: u64, width: usize, out: &mut String) {
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    while n > 0 || buf.len() - start < width {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend(buf[start..].iter().map(|&d| char::from(d)));
}

/// A JSON string literal: `"` and `\` backslash-escaped, the five
/// control characters with short escapes written short, every other
/// character below U+0020 as `\u00xx`, everything else verbatim.
/// Multi-byte UTF-8 sequences never contain a byte below 0x80, so the
/// scan runs over bytes and copies unescaped runs whole.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// What every `TickCompleted` line starts with, up to its `t_s` value.
const TICK_HEAD: &str = "{\"TickCompleted\":{\"t_s\":";

/// A file sink's `TickCompleted` lines, which mostly differ only in
/// `t_s`: a line is [`TICK_HEAD`], the time, and the tail after it that
/// [`Event::write_json`] rendered for the last key (`step_ms` bits,
/// `flows`, `migrations_total`).
#[derive(Debug, Default)]
pub(crate) struct TickTail {
    key: Option<(u64, u32, u64)>,
    tail: String,
}

impl TickTail {
    /// Appends `event`'s compact JSON to `out`, as `write_json` does.
    pub(crate) fn write_line(&mut self, event: &Event, out: &mut String) {
        let Event::TickCompleted { t_s, step_ms, flows, migrations_total } = *event else {
            return event.write_json(out);
        };
        if self.key != Some((step_ms.to_bits(), flows, migrations_total)) {
            self.key = Some((step_ms.to_bits(), flows, migrations_total));
            self.tail.clear();
            Event::TickCompleted { t_s: 0.0, step_ms, flows, migrations_total }.write_json(&mut self.tail);
            // Drop the head and the `0` that zero is written as.
            self.tail.drain(..TICK_HEAD.len() + 1);
        }
        out.push_str(TICK_HEAD);
        write_float(t_s, out);
        out.push_str(&self.tail);
    }
}

impl Event {
    /// Appends this event's compact JSON (no trailing newline) to `out`:
    /// the same bytes as `serde_json::to_string(self)`, and what every
    /// journal line and [`Journal::export_jsonl`](crate::Journal::export_jsonl)
    /// entry is made of.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Event::PlacementDecided { t_s, component, node, policy, crossing_mbps } => {
                Object::open(out, "PlacementDecided")
                    .float("t_s", *t_s)
                    .int("component", *component)
                    .int("node", *node)
                    .text("policy", policy)
                    .float("crossing_mbps", *crossing_mbps)
                    .close();
            }
            Event::PlacementRejected { t_s, component, reason } => {
                Object::open(out, "PlacementRejected")
                    .float("t_s", *t_s)
                    .int("component", *component)
                    .text("reason", reason)
                    .close();
            }
            Event::ProbeCompleted { t_s, kind, links, violated, probe_bytes, overhead_bytes_total } => {
                let kind = match kind {
                    ProbeKind::Full => "Full",
                    ProbeKind::Headroom => "Headroom",
                };
                Object::open(out, "ProbeCompleted")
                    .float("t_s", *t_s)
                    .text("kind", kind)
                    .int("links", *links)
                    .int("violated", *violated)
                    .int("probe_bytes", *probe_bytes)
                    .int("overhead_bytes_total", *overhead_bytes_total)
                    .close();
            }
            Event::MigrationTriggered {
                t_s,
                component,
                dependency,
                trigger,
                required_mbps,
                goodput_fraction,
                threshold,
            } => {
                Object::open(out, "MigrationTriggered")
                    .float("t_s", *t_s)
                    .int("component", *component)
                    .int("dependency", *dependency)
                    .text("trigger", trigger)
                    .float("required_mbps", *required_mbps)
                    .float("goodput_fraction", *goodput_fraction)
                    .float("threshold", *threshold)
                    .close();
            }
            Event::MigrationTargetChosen {
                t_s,
                component,
                from,
                to,
                observed_goodput_fraction,
                degraded,
            } => {
                Object::open(out, "MigrationTargetChosen")
                    .float("t_s", *t_s)
                    .int("component", *component)
                    .int("from", *from)
                    .int("to", *to)
                    .float("observed_goodput_fraction", *observed_goodput_fraction)
                    .flag("degraded", *degraded)
                    .close();
            }
            Event::LinkCapacityChanged { t_s, a, b, old_mbps, new_mbps, cause } => {
                Object::open(out, "LinkCapacityChanged")
                    .float("t_s", *t_s)
                    .int("a", *a)
                    .int("b", *b)
                    .float("old_mbps", *old_mbps)
                    .float("new_mbps", *new_mbps)
                    .text("cause", cause)
                    .close();
            }
            Event::FlowRateRecomputed { t_s, flows, demand_mbps, allocated_mbps, saturated_links } => {
                Object::open(out, "FlowRateRecomputed")
                    .float("t_s", *t_s)
                    .int("flows", *flows)
                    .float("demand_mbps", *demand_mbps)
                    .float("allocated_mbps", *allocated_mbps)
                    .int("saturated_links", *saturated_links)
                    .close();
            }
            Event::FaultInjected { t_s, kind, target, detail } => {
                Object::open(out, "FaultInjected")
                    .float("t_s", *t_s)
                    .text("kind", kind)
                    .text("target", target)
                    .text("detail", detail)
                    .close();
            }
            Event::AppAdmitted { t_s, app, components } => {
                Object::open(out, "AppAdmitted")
                    .float("t_s", *t_s)
                    .text("app", app)
                    .int("components", *components)
                    .close();
            }
            Event::AppRetired { t_s, app, components } => {
                Object::open(out, "AppRetired")
                    .float("t_s", *t_s)
                    .text("app", app)
                    .int("components", *components)
                    .close();
            }
            Event::CampaignReplicaCompleted { t_s, replica, ticks, apps_admitted, migrations } => {
                Object::open(out, "CampaignReplicaCompleted")
                    .float("t_s", *t_s)
                    .int("replica", *replica)
                    .int("ticks", *ticks)
                    .int("apps_admitted", *apps_admitted)
                    .int("migrations", *migrations)
                    .close();
            }
            Event::TickCompleted { t_s, step_ms, flows, migrations_total } => {
                Object::open(out, "TickCompleted")
                    .float("t_s", *t_s)
                    .float("step_ms", *step_ms)
                    .int("flows", *flows)
                    .int("migrations_total", *migrations_total)
                    .close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_jsonl;
    use bass_util::rng::SimRng;

    const HOSTILE_FLOATS: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        1e21,
        1e-7,
        100.0,
        0.1,
        f64::MAX,
        -1.5,
    ];
    const HOSTILE_INTS: [u64; 6] = [0, 1, u32::MAX as u64, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
    /// Every character `write_escaped` treats specially, plus neighbours
    /// it must leave alone: DEL, the JSON-legal line separator and
    /// multi-byte characters of every UTF-8 width.
    const HOSTILE_CHARS: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{b}', '\u{c}', '\u{1f}',
        ' ', '\u{7f}', '\u{80}', 'é', '\u{2028}', '\u{2029}', '字', '🦀', 'a',
    ];

    /// Seeded event generator. A pinned value replaces every field of
    /// its type, so one hostile value reaches every field of a variant.
    struct Gen {
        rng: SimRng,
        float: Option<f64>,
        int: Option<u64>,
        text: Option<String>,
    }

    impl Gen {
        fn new(seed: u64) -> Self {
            Gen { rng: SimRng::seed_from_u64(seed), float: None, int: None, text: None }
        }

        fn float(&mut self) -> f64 {
            if let Some(v) = self.float {
                return v;
            }
            match self.rng.below(5) {
                0 => HOSTILE_FLOATS[self.rng.below(HOSTILE_FLOATS.len() as u64) as usize],
                1 => f64::from_bits(self.rng.next_u64()),
                // On and beside the millisecond grid `write_float`
                // shortcuts, at every magnitude up to past its limit.
                2 | 3 => {
                    let k = (self.rng.next_u64() >> self.rng.below(64)) as f64;
                    let v = k / [1.0, 10.0, 100.0, 1000.0, 1e4][self.rng.below(5) as usize];
                    [v, -v, v.next_up(), v.next_down()][self.rng.below(4) as usize]
                }
                _ => self.rng.uniform(-1e6, 1e6),
            }
        }

        fn u64(&mut self) -> u64 {
            if let Some(v) = self.int {
                return v;
            }
            match self.rng.below(3) {
                0 => HOSTILE_INTS[self.rng.below(HOSTILE_INTS.len() as u64) as usize],
                1 => self.rng.next_u64(),
                _ => self.rng.below(1000),
            }
        }

        fn u32(&mut self) -> u32 {
            match self.int {
                Some(v) => v as u32,
                None => (self.u64() >> (32 * self.rng.below(2))) as u32,
            }
        }

        fn flag(&mut self) -> bool {
            self.rng.chance(0.5)
        }

        fn text(&mut self) -> String {
            if let Some(s) = &self.text {
                return s.clone();
            }
            let len = self.rng.below(12);
            (0..len)
                .map(|_| {
                    if self.rng.chance(0.5) {
                        HOSTILE_CHARS[self.rng.below(HOSTILE_CHARS.len() as u64) as usize]
                    } else {
                        char::from_u32(self.rng.below(0x11_0000) as u32).unwrap_or('?')
                    }
                })
                .collect()
        }

        fn event(&mut self, variant: u64) -> Event {
            let t_s = self.float();
            match variant {
                0 => Event::PlacementDecided {
                    t_s,
                    component: self.u32(),
                    node: self.u32(),
                    policy: self.text(),
                    crossing_mbps: self.float(),
                },
                1 => Event::PlacementRejected { t_s, component: self.u32(), reason: self.text() },
                2 => Event::ProbeCompleted {
                    t_s,
                    kind: if self.flag() { ProbeKind::Full } else { ProbeKind::Headroom },
                    links: self.u32(),
                    violated: self.u32(),
                    probe_bytes: self.u64(),
                    overhead_bytes_total: self.u64(),
                },
                3 => Event::MigrationTriggered {
                    t_s,
                    component: self.u32(),
                    dependency: self.u32(),
                    trigger: self.text(),
                    required_mbps: self.float(),
                    goodput_fraction: self.float(),
                    threshold: self.float(),
                },
                4 => Event::MigrationTargetChosen {
                    t_s,
                    component: self.u32(),
                    from: self.u32(),
                    to: self.u32(),
                    observed_goodput_fraction: self.float(),
                    degraded: self.flag(),
                },
                5 => Event::LinkCapacityChanged {
                    t_s,
                    a: self.u32(),
                    b: self.u32(),
                    old_mbps: self.float(),
                    new_mbps: self.float(),
                    cause: self.text(),
                },
                6 => Event::FlowRateRecomputed {
                    t_s,
                    flows: self.u32(),
                    demand_mbps: self.float(),
                    allocated_mbps: self.float(),
                    saturated_links: self.u32(),
                },
                7 => Event::FaultInjected {
                    t_s,
                    kind: self.text(),
                    target: self.text(),
                    detail: self.text(),
                },
                8 => Event::AppAdmitted { t_s, app: self.text(), components: self.u32() },
                9 => Event::AppRetired { t_s, app: self.text(), components: self.u32() },
                10 => Event::CampaignReplicaCompleted {
                    t_s,
                    replica: self.u32(),
                    ticks: self.u64(),
                    apps_admitted: self.u64(),
                    migrations: self.u64(),
                },
                _ => Event::TickCompleted {
                    t_s,
                    step_ms: self.float(),
                    flows: self.u32(),
                    migrations_total: self.u64(),
                },
            }
        }
    }

    /// Every float field of `ev` is finite (the oracle wrote no `null`),
    /// so its line parses back.
    fn all_finite(ev: &Event) -> bool {
        let value: serde_json::Value = serde_json::from_str(&serde_json::to_string(ev).unwrap()).unwrap();
        let fields = &value.as_object().unwrap()[0].1;
        fields.as_object().unwrap().iter().all(|(_, v)| !v.is_null())
    }

    fn assert_matches_serde(ev: &Event) {
        let mut line = String::new();
        ev.write_json(&mut line);
        assert_eq!(line, serde_json::to_string(ev).unwrap(), "{ev:?}");
        if all_finite(ev) {
            let back = parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, vec![ev.clone()], "{line}");
        }
    }

    #[test]
    fn hostile_table_matches_serde_byte_for_byte() {
        let mut gen = Gen::new(0);
        let mut kinds = std::collections::BTreeSet::new();
        let all: String = HOSTILE_CHARS.iter().collect();
        let controls: String = (0u8..0x20).map(char::from).collect();
        let texts = HOSTILE_CHARS.iter().map(|c| format!("a{c}{c}b{c}")).chain([all, controls]);
        for variant in 0..12 {
            kinds.insert(gen.event(variant).kind());
            for &f in &HOSTILE_FLOATS {
                gen.float = Some(f);
                assert_matches_serde(&gen.event(variant));
            }
            gen.float = None;
            for &n in &HOSTILE_INTS {
                gen.int = Some(n);
                assert_matches_serde(&gen.event(variant));
            }
            gen.int = None;
            for s in texts.clone() {
                gen.text = Some(s);
                assert_matches_serde(&gen.event(variant));
            }
            gen.text = None;
        }
        assert_eq!(kinds.len(), 12, "every variant covered");
    }

    #[test]
    fn seeded_events_match_serde_byte_for_byte() {
        let mut gen = Gen::new(0x05ee_d0b5);
        let mut finite = 0;
        for i in 0..12 * 400 {
            let ev = gen.event(i % 12);
            finite += usize::from(all_finite(&ev));
            assert_matches_serde(&ev);
        }
        assert!(finite > 500, "too few parse-back cases: {finite}");
    }
}
