//! Rule family 3: the determinism lint.
//!
//! Bit-identical results at every thread/rank count are a load-bearing
//! invariant (`tests/decomposition/mod.rs`).
//! Two static hazards are flagged:
//!
//! 1. **Hash-order iteration.** Iterating a `HashMap`/`HashSet` yields a
//!    nondeterministic order; folding floats in that order breaks
//!    bit-identity between runs. Keyed lookups (`get`/`entry`/`insert`/
//!    `contains_key`) are exempt — that is why the kernel cache in
//!    `crates/kernels/src/cache.rs` passes without a waiver.
//! 2. **Worker-closure float accumulation.** Compound accumulation
//!    (`+=`, `-=`, `*=`) or `fold`/`sum` inside a closure passed to
//!    `.scope(` / `.broadcast(` / `.spawn(` / `.spawn_scoped(` /
//!    `::spawn(` runs in scheduler order. The blessed pattern is what
//!    `BlockRhs` does: accumulate into per-block scratch inside the
//!    closure-free sweep, reduce in block order on the main thread after
//!    the barrier. Braceless closures are covered too: the closure
//!    expression itself is scanned, and when it is a single call to a
//!    same-file function (the ensemble scheduler's
//!    `.spawn_scoped(s, || run_worker(&shared))`, the block pool's
//!    `.spawn(move || worker_loop(&shared, index))`), the lint follows
//!    **one** level into that function's body — so
//!    hiding the accumulation behind a trivial wrapper does not evade
//!    the rule. Braced closures are *not* followed into their callees:
//!    a braced body is the visible worker code, and calls out of it are
//!    the blessed per-block-scratch pattern.
//!
//! `#[cfg(test)]` modules are exempt (tests assert determinism
//! dynamically; their own bookkeeping is not a hazard).

use crate::report::{Diagnostic, Rule, Severity};
use crate::scan::{find_word, match_brace, SourceFile};
use std::collections::BTreeSet;

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    hash_iteration(file, &mut diags);
    worker_closure_accumulation(file, &mut diags);
    diags
}

/// Collect identifiers bound to `HashMap`/`HashSet` values in this file
/// (let-bindings, fields, statics), then flag iteration over them.
fn hash_iteration(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let mut names: BTreeSet<String> = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        // `let [mut] name = …` / `let name: HashMap<…> = …`.
        if let Some(p) = find_word(code, "let", 0) {
            let rest = code[p + 3..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            if let Some(name) = leading_ident(rest) {
                names.insert(name);
                continue;
            }
        }
        // `name: HashMap<…>` field or static declarations.
        if let Some(hp) = code.find("Hash") {
            if let Some(colon) = code[..hp].rfind(':') {
                let before = code[..colon].trim_end();
                if let Some(name) = trailing_ident(before) {
                    names.insert(name);
                }
            }
        }
    }
    if names.is_empty() {
        return;
    }
    for (li, line) in file.lines.iter().enumerate() {
        if file.in_test[li] {
            continue;
        }
        let code = &line.code;
        for name in &names {
            let method_iter = ITER_METHODS.iter().any(|m| {
                find_word(code, name, 0)
                    .map(|p| code[p + name.len()..].starts_with(m))
                    .unwrap_or(false)
            });
            let for_iter = find_word(code, "for", 0)
                .and_then(|fp| find_word(code, "in", fp))
                .map(|ip| find_word(code, name, ip).is_some())
                .unwrap_or(false);
            if method_iter || for_iter {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: li + 1,
                    rule: Rule::Determinism,
                    severity: Severity::Error,
                    message: format!(
                        "iteration over hash-ordered `{name}` (nondeterministic order breaks \
                         bit-identity; use a keyed lookup, a sorted container, or waive with a reason)"
                    ),
                });
                break;
            }
        }
    }
}

/// One line of code contains a compound float accumulation or an
/// order-sensitive iterator reduction.
fn has_accumulation(code: &str) -> bool {
    ["+=", "-=", "*="].iter().any(|op| code.contains(op))
        || code.contains(".fold(")
        || code.contains(".sum()")
        || code.contains(".sum::")
}

/// Flag compound accumulation inside `.scope(` / `.broadcast(` /
/// `.spawn(` / `.spawn_scoped(` / `::spawn(` closure bodies (braced or
/// braceless; see the module docs for the one-level wrapper follow).
fn worker_closure_accumulation(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const SPAWNERS: &[&str] = &[
        ".scope(",
        ".broadcast(",
        ".spawn(",
        ".spawn_scoped(",
        "::spawn(",
    ];
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for (li, line) in file.lines.iter().enumerate() {
        if file.in_test[li] {
            continue;
        }
        for spawner in SPAWNERS {
            let Some(p) = line.code.find(spawner) else {
                continue;
            };
            let arg_start = p + spawner.len();
            // The closure body brace, if any, before the call's `)`.
            let Some((bl, bc)) = closure_brace(file, li, arg_start) else {
                // Braceless argument: scan the expression itself, and
                // follow one level into a same-file single-call wrapper.
                braceless_spawner_argument(file, li, arg_start, spawner, &mut flagged, diags);
                continue;
            };
            let end = match_brace(&file.lines, bl, bc).unwrap_or(file.lines.len() - 1);
            for j in bl..=end {
                if flagged.contains(&j) || file.in_test[j] {
                    continue;
                }
                if has_accumulation(&file.lines[j].code) {
                    flagged.insert(j);
                    diags.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: j + 1,
                        rule: Rule::Determinism,
                        severity: Severity::Error,
                        message: format!(
                            "accumulation inside a worker closure (line {} `{}`): reductions must \
                             be block-ordered on the main thread after the barrier, as in \
                             `BlockRhs::species_rhs`",
                            li + 1,
                            spawner_tag(spawner),
                        ),
                    });
                }
            }
        }
    }
    diags.sort_by_key(|d| d.line);
}

fn spawner_tag(spawner: &str) -> &str {
    spawner
        .trim_start_matches('.')
        .trim_start_matches(':')
        .trim_end_matches('(')
}

/// Handle a braceless spawner argument like
/// `pool.broadcast(|_| run_worker(&shared))` or
/// `thread::spawn(move || worker_loop(shared, i, n))`: flag accumulation
/// in the expression text itself, and when the closure body is a single
/// call to a plain same-file function, scan that function's body too
/// (one level only — wrappers must not hide scheduler-order reductions).
fn braceless_spawner_argument(
    file: &SourceFile,
    li: usize,
    arg_start: usize,
    spawner: &str,
    flagged: &mut BTreeSet<usize>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(expr) = argument_text(file, li, arg_start) else {
        return;
    };
    if has_accumulation(&expr) && !flagged.contains(&li) {
        flagged.insert(li);
        diags.push(Diagnostic {
            file: file.rel_path.clone(),
            line: li + 1,
            rule: Rule::Determinism,
            severity: Severity::Error,
            message: format!(
                "accumulation inside a worker closure (`{}`): reductions must be block-ordered \
                 on the main thread after the barrier, as in `BlockRhs::species_rhs`",
                spawner_tag(spawner),
            ),
        });
    }
    let Some(callee) = single_call_callee(&expr) else {
        return;
    };
    let Some((bl, bc)) = local_fn_body(file, &callee) else {
        return;
    };
    let end = match_brace(&file.lines, bl, bc).unwrap_or(file.lines.len() - 1);
    for j in bl..=end {
        if flagged.contains(&j) || file.in_test[j] {
            continue;
        }
        if has_accumulation(&file.lines[j].code) {
            flagged.insert(j);
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: j + 1,
                rule: Rule::Determinism,
                severity: Severity::Error,
                message: format!(
                    "accumulation in `{callee}`, the body of the worker closure at line {} \
                     (`{}`): reductions must be block-ordered on the main thread after the \
                     barrier, as in `BlockRhs::species_rhs`",
                    li + 1,
                    spawner_tag(spawner),
                ),
            });
        }
    }
}

/// The call argument's source text from `(line, col)` (just inside the
/// call's `(`) to its matching `)`, joined across lines.
fn argument_text(file: &SourceFile, line: usize, col: usize) -> Option<String> {
    let mut depth = 1i64;
    let mut out = String::new();
    let mut li = line;
    let mut c0 = col;
    loop {
        let code = &file.lines.get(li)?.code;
        for ch in code[c0.min(code.len())..].chars() {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(out);
                    }
                }
                _ => {}
            }
            out.push(ch);
        }
        out.push(' ');
        li += 1;
        c0 = 0;
    }
}

/// If `expr` is (or ends in) a closure whose whole body is one call to a
/// plain local identifier — `|_| run_worker(&shared)`,
/// `move || worker_loop(a, b)`, `s, || run_worker(&shared)` (the
/// arguments of `spawn_scoped`) — return that callee name. Method calls
/// (`s.spawn(..)`), paths (`m::f(..)`), and non-closure arguments yield
/// `None`.
fn single_call_callee(expr: &str) -> Option<String> {
    // The closure starts at its parameter list's `|`: whatever precedes
    // it is `move` or an earlier argument.
    let s = &expr[expr.find('|')? + 1..];
    let close = s.find('|')?;
    let body = s[close + 1..].trim();
    let open = body.find('(')?;
    let callee = body[..open].trim();
    if callee.is_empty()
        || !callee.chars().all(|c| c.is_alphanumeric() || c == '_')
        || callee.as_bytes()[0].is_ascii_digit()
    {
        return None;
    }
    // The call must span the whole body: its `(` closes at the end.
    let mut depth = 0i64;
    for (k, ch) in body.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return body[k + 1..].trim().is_empty().then(|| callee.to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Locate the body brace of `fn name` defined at this file's non-test
/// top level.
fn local_fn_body(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    for (li, line) in file.lines.iter().enumerate() {
        if file.in_test[li] {
            continue;
        }
        let code = &line.code;
        let Some(fp) = find_word(code, "fn", 0) else {
            continue;
        };
        let rest = code[fp + 2..].trim_start();
        if !(rest.starts_with(name)
            && rest[name.len()..]
                .chars()
                .next()
                .is_some_and(|c| c == '(' || c == '<' || c.is_whitespace()))
        {
            continue;
        }
        // The body `{` may sit on this or a following line (signatures
        // wrap); stop scanning at a `;` (trait method declarations).
        let mut c0 = fp;
        for j in li..file.lines.len() {
            let code = &file.lines[j].code;
            let tail = &code[c0.min(code.len())..];
            if let Some(k) = tail.find('{') {
                return Some((j, c0 + k));
            }
            if tail.contains(';') {
                break;
            }
            c0 = 0;
        }
    }
    None
}

/// Find the `{` opening a closure body within the call starting at
/// `(line, col)` (tracking paren depth so `.spawn(move || f(x))` —
/// no braces — yields `None`).
fn closure_brace(file: &SourceFile, line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 1i64; // we start just inside the call's `(`
    let mut li = line;
    let mut c0 = col;
    loop {
        let code = &file.lines.get(li)?.code;
        for (k, ch) in code[c0.min(code.len())..].char_indices() {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return None;
                    }
                }
                '{' => return Some((li, c0 + k)),
                _ => {}
            }
        }
        li += 1;
        c0 = 0;
    }
}

fn leading_ident(s: &str) -> Option<String> {
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    (end > 0 && !s.as_bytes()[0].is_ascii_digit()).then(|| s[..end].to_string())
}

fn trailing_ident(s: &str) -> Option<String> {
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .last()
        .map(|(i, _)| i)?;
    let id = &s[start..];
    (!id.is_empty() && !id.as_bytes()[0].is_ascii_digit()).then(|| id.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_lines, test_mask};

    fn run(src: &str) -> Vec<Diagnostic> {
        let lines = scan_lines(src);
        let in_test = test_mask(&lines);
        check(&SourceFile {
            rel_path: "x.rs".into(),
            lines,
            in_test,
        })
    }

    #[test]
    fn hashmap_iteration_fires_keyed_lookup_passes() {
        let d = run("fn f(m: &std::collections::HashMap<u32, f64>) {\n    let map: HashMap<u32, f64> = g();\n    for (k, v) in map.iter() { h(k, v); }\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);

        let d = run("fn f() {\n    let map: HashMap<u32, f64> = g();\n    let x = map.get(&3);\n    map.entry(7).or_insert(0.0);\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn field_typed_hashset_for_loop_fires() {
        let d = run(
            "struct S { seen: HashSet<u64> }\nfn f(s: &S) {\n    for v in &s.seen { g(v); }\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn worker_closure_accumulation_fires() {
        let src = "\
fn f(pool: &P, total: &mut f64) {
    pool.broadcast(|ctx| {
        *total += g(ctx);
    });
}
";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn braceless_spawn_and_main_thread_reduction_pass() {
        let src = "\
fn f(pool: &P, total: &mut f64) {
    pool.scope(|s| s.spawn(move |_| g()));
    for w in &ws {
        *total += w.partial;
    }
}
";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn braceless_closure_expression_accumulation_fires() {
        let src = "\
fn f(pool: &P, xs: &[f64]) {
    pool.broadcast(|ctx| xs.iter().sum::<f64>());
}
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn braceless_wrapper_is_followed_one_level() {
        let src = "\
fn f(pool: &P) {
    pool.broadcast(|_| run_worker(&shared));
}
fn run_worker(shared: &Shared) {
    let mut st = shared.state.lock().unwrap();
    st.remaining -= 1;
}
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6, "{d:?}");
        assert!(d[0].message.contains("run_worker"), "{}", d[0].message);
    }

    #[test]
    fn thread_spawn_path_wrapper_fires_and_clean_wrapper_passes() {
        let src = "\
fn f() {
    std::thread::spawn(move || worker_loop(shared, 0, 1));
}
fn worker_loop(shared: &Shared, index: usize, n: usize) {
    total += g(index);
}
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);

        // A clean wrapper body stays clean, and calls *out of* the
        // wrapper are not followed (one level only).
        let src = "\
fn f(pool: &P) {
    pool.broadcast(|_| run_worker(&shared));
}
fn run_worker(shared: &Shared) {
    deeper(shared);
}
fn deeper(shared: &Shared) {
    total += 1.0;
}
";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scoped_thread_worker_is_followed_one_level() {
        // `std::thread::scope` fan-out, spawned plainly and through a
        // `thread::Builder` (the ensemble scheduler's form).
        for spawn in [
            "s.spawn(|| run_worker(&shared));",
            "std::thread::Builder::new().spawn_scoped(s, || run_worker(&shared)).unwrap();",
        ] {
            let src = format!(
                "\
fn run(shared: &Shared) {{
    std::thread::scope(|s| {{
        {spawn}
    }});
}}
fn run_worker(shared: &Shared) {{
    total += g(shared);
}}
"
            );
            let d = run(&src);
            assert_eq!(d.len(), 1, "{spawn}: {d:?}");
            assert_eq!(d[0].line, 7, "{spawn}: {d:?}");
            assert!(d[0].message.contains("run_worker"), "{}", d[0].message);
        }
    }

    #[test]
    fn pool_broadcast_closure_accumulation_fires() {
        let src = "\
fn f(pool: &mut Pool, xs: &[f64], total: &mut f64) {
    pool.broadcast(|w| {
        *total += xs[w];
    });
}
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn braced_closure_callees_are_not_followed() {
        // The blessed `BlockRhs` shape: a braced worker closure calling a
        // helper that reduces into its *own* per-block scratch.
        let src = "\
fn f(pool: &P) {
    pool.broadcast(|ctx| {
        sweep_block(ctx);
    });
}
fn sweep_block(ctx: &C) {
    scratch[ctx.index()] += 1.0;
}
";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }
}
