//! Pass 3 — the lock-discipline lint.
//!
//! The store's contract is *snapshot under a brief lock, build off-lock,
//! publish with one `Arc` swap*: a writer that holds a `Mutex`/`RwLock`
//! guard across a filter (re)build stalls every other writer for the whole
//! O(shard) construction. This pass enforces that structurally inside
//! `crates/store/src`: any function where a guard binding is still live
//! when a rebuild/build/peel-family function is called gets flagged.
//!
//! Guard bindings are recognized lexically: `let [mut] name = …` whose
//! initializer is a lock acquisition chain — ending in `.lock()`,
//! `.read()`, `.write()` or a `…guard()` helper, optionally followed by
//! `.unwrap()` / `.expect("…")`. The guard is considered live from its
//! binding to the end of the enclosing block, or to an explicit
//! `drop(name)`. Every rebuild mode, `RebuildMode::Inline` included, runs
//! the same off-lock job; the only intentional under-lock builds are a
//! policy decision of `RebuildUrgency::Immediate` and delta backpressure.
//! Where such a build is reachable from a call made with a guard live, the
//! call site carries a `// pof-analyze: allow(lock-discipline): …` waiver.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::{Diagnostic, Pass};

/// Does `name` belong to the rebuild/build/peel family the off-lock
/// contract is about?
#[must_use]
pub fn is_build_family(name: &str) -> bool {
    name.contains("rebuild")
        || name.contains("peel")
        || name == "build"
        || name.starts_with("build_")
}

/// Is the call at token `index` the *definition* (`fn rebuild…(`) rather
/// than a use?
fn is_definition(tokens: &[Token], index: usize) -> bool {
    index > 0 && tokens[index - 1].text == "fn"
}

/// A live guard: binding name plus the brace depth it was bound at.
struct LiveGuard {
    name: String,
    line: usize,
    depth: i32,
}

/// Check one file (the driver only feeds `crates/store/src` files here).
#[must_use]
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let tokens = &file.lex.tokens;
    let mut diagnostics = Vec::new();
    for f in &file.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if file.is_test_code(f.start_line) {
            continue;
        }
        let mut guards: Vec<LiveGuard> = Vec::new();
        let mut depth = 0i32;
        let mut i = open;
        while i <= close {
            let tok = &tokens[i];
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                "let" => {
                    if let Some((name, line, end)) = guard_binding(tokens, i, close) {
                        guards.push(LiveGuard { name, line, depth });
                        i = end;
                        continue;
                    }
                }
                "drop" => {
                    // `drop(name)` releases the guard early.
                    if tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
                        if let Some(arg) = tokens.get(i + 2) {
                            guards.retain(|g| g.name != arg.text);
                        }
                    }
                }
                _ => {
                    if tok.kind == TokenKind::Ident
                        && is_build_family(&tok.text)
                        && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                        && !is_definition(tokens, i)
                        && !guards.is_empty()
                        && !file.waived(Pass::LockDiscipline, tok.line)
                    {
                        let guard = guards.last().expect("non-empty");
                        diagnostics.push(Diagnostic {
                            file: file.rel_path.clone(),
                            line: tok.line,
                            pass: Pass::LockDiscipline,
                            message: format!(
                                "`{}` called while guard `{}` (acquired line {}) is live in \
                                 `{}`; snapshot under a brief lock and build off-lock, or waive \
                                 an intentional inline build with \
                                 `// pof-analyze: allow(lock-discipline): <why>`",
                                tok.text, guard.name, guard.line, f.name
                            ),
                        });
                    }
                }
            }
            i += 1;
        }
    }
    diagnostics
}

/// If the `let` at token `start` binds a lock guard, return
/// `(name, line, index of the terminating ';')`.
fn guard_binding(tokens: &[Token], start: usize, limit: usize) -> Option<(String, usize, usize)> {
    let mut i = start + 1;
    if tokens.get(i).map(|t| t.text.as_str()) == Some("mut") {
        i += 1;
    }
    let name_tok = tokens.get(i)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // destructuring patterns never bind a bare guard
    }
    // Skip an optional `: Type` ascription to the `=`.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j <= limit {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => break,
            ";" if depth == 0 => return None, // `let name;`
            _ => {}
        }
        j += 1;
    }
    // Collect the initializer up to the statement's `;`.
    let init_start = j + 1;
    let mut k = init_start;
    let mut depth = 0i32;
    while k <= limit {
        match tokens[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if is_lock_chain(&tokens[init_start..k]) {
        Some((name_tok.text.clone(), name_tok.line, k))
    } else {
        None
    }
}

/// Does an initializer token sequence end in a lock acquisition? The chain
/// may close with `.unwrap()` / `.expect("…")`; anything else after the
/// acquisition (`.lock().…().pop_front()`) means the binding holds a
/// borrowed result, not the guard itself.
fn is_lock_chain(init: &[Token]) -> bool {
    let mut end = init.len();
    loop {
        // Strip one trailing `.method(args)` group and examine the method.
        if end == 0 || init[end - 1].text != ")" {
            return false;
        }
        let mut depth = 0i32;
        let mut open = None;
        for idx in (0..end).rev() {
            match init[idx].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(idx);
                        break;
                    }
                }
                _ => {}
            }
        }
        let open = match open {
            Some(open) if open >= 2 => open,
            _ => return false,
        };
        let method = &init[open - 1];
        if method.kind != TokenKind::Ident || init[open - 2].text != "." {
            return false;
        }
        match method.text.as_str() {
            "unwrap" | "expect" => end = open - 2, // keep stripping
            "lock" | "read" | "write" => return true,
            name if name.ends_with("guard") => return true,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(body: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse("crates/store/src/x.rs", body))
    }

    #[test]
    fn guard_across_build_is_flagged_and_drop_releases() {
        let bad = "fn f(&self) { let mut w = self.writer.lock().expect(\"p\"); w.rebuild_inline(64, true); }";
        assert_eq!(diags(bad).len(), 1);
        let dropped = "fn f(&self) { let w = self.writer.lock().unwrap(); drop(w); rebuild(64); }";
        assert!(diags(dropped).is_empty());
    }

    #[test]
    fn non_guard_bindings_and_off_lock_builds_pass() {
        // `.lock().…().pop_front()` binds the popped value, not the guard.
        let popped =
            "fn f(&self) { let step = queue.lock().unwrap().pop_front(); shard.begin_rebuild(step); }";
        assert!(diags(popped).is_empty());
        let off_lock = "fn f(&self) { let plan = snapshot(); plan.rebuild(); }";
        assert!(diags(off_lock).is_empty());
    }

    #[test]
    fn block_scope_ends_guard_liveness() {
        let scoped =
            "fn f(&self) { { let w = self.writer.lock().unwrap(); snapshot(&w); } rebuild(64); }";
        assert!(diags(scoped).is_empty());
    }

    #[test]
    fn waiver_at_the_call_site_is_honored() {
        let waived = "fn f(&self) {\n    let mut w = self.writer.lock().unwrap();\n    // pof-analyze: allow(lock-discipline): inline mode rebuilds under the writer lock by contract\n    w.rebuild_inline(64, true);\n}";
        assert!(diags(waived).is_empty());
    }
}
