//! An in-process MI server backed by a simulated debuggee.
//!
//! `MockGdb` answers the MI command subset that [`crate::MiTarget`]
//! issues, against a [`SimTarget`] (typically one of the paper
//! scenarios). Responses follow the gdb/MI output grammar exactly, so
//! the full client → parser → adapter stack is exercised; program
//! output from native calls (e.g. `printf`) is relayed as `@` target
//! stream records, as a real gdb does.

use std::collections::VecDeque;

use duel_ctype::{Prim, TypeKind};
use duel_target::{CallValue, SimTarget, Target};

use crate::{client::MiTransport, command::escape, MiError};

/// The mock MI server.
pub struct MockGdb {
    /// The simulated debuggee being served.
    pub sim: SimTarget,
    queue: VecDeque<String>,
    /// Always empty: the server keeps no log of the commands it
    /// serves, so a long session's memory stays flat. (Callers that
    /// clear it may keep doing so.)
    pub log: Vec<String>,
}

impl MockGdb {
    /// Serves `sim` over MI.
    pub fn new(sim: SimTarget) -> MockGdb {
        MockGdb {
            sim,
            queue: VecDeque::new(),
            log: Vec::new(),
        }
    }

    fn reply(&mut self, token: &str, body: String) {
        self.queue.push_back(format!("{token}{body}"));
        self.queue.push_back("(gdb)".to_string());
    }

    fn reply_error(&mut self, token: &str, msg: &str) {
        let msg = escape(msg);
        self.queue.push_back(format!("{token}^error,msg=\"{msg}\""));
        self.queue.push_back("(gdb)".to_string());
    }

    fn emit_target_output(&mut self) {
        let out = self.sim.take_output();
        if !out.is_empty() {
            self.queue.push_front(format!("@\"{}\"", escape(&out)));
        }
    }

    fn handle(&mut self, line: &str) {
        let token_end = line
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(line.len());
        let (token, rest) = line.split_at(token_end);
        let mut parts = split_args(rest);
        if parts.is_empty() {
            self.reply_error(token, "empty command");
            return;
        }
        let cmd = parts.remove(0);
        match cmd.as_str() {
            "-data-read-memory-bytes" => {
                let (addr, count) = match (
                    parts.first().and_then(|s| parse_u64(s)),
                    parts.get(1).and_then(|s| parse_u64(s)),
                ) {
                    (Some(a), Some(c)) => (a, c),
                    _ => return self.reply_error(token, "bad arguments"),
                };
                let mut buf = vec![0u8; count as usize];
                match self.sim.get_bytes(addr, &mut buf) {
                    Ok(()) => {
                        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
                        self.reply(
                            token,
                            format!(
                                "^done,memory=[{{begin=\"0x{addr:x}\",\
                                 end=\"0x{:x}\",contents=\"{hex}\"}}]",
                                addr + count
                            ),
                        );
                    }
                    Err(e) => self.reply_error(token, &e.to_string()),
                }
            }
            "-data-write-memory-bytes" => {
                let addr = parts.first().and_then(|s| parse_u64(s));
                let hex = parts.get(1).map(|s| s.trim_matches('"'));
                let (addr, hex) = match (addr, hex) {
                    (Some(a), Some(h)) => (a, h),
                    _ => return self.reply_error(token, "bad arguments"),
                };
                let bytes = match decode_hex(hex) {
                    Some(b) => b,
                    None => return self.reply_error(token, "bad hex"),
                };
                match self.sim.put_bytes(addr, &bytes) {
                    Ok(()) => self.reply(token, "^done".to_string()),
                    Err(e) => self.reply_error(token, &e.to_string()),
                }
            }
            "-data-evaluate-expression" => {
                let expr = parts.join(" ");
                let expr = expr.trim_matches('"').replace("\\\"", "\"");
                self.evaluate(token, &expr);
            }
            "-duel-symbol-info" => {
                let name = parts.first().cloned().unwrap_or_default();
                match self.sim.get_variable(&name) {
                    Some(v) => {
                        let ty = self.sim.types().display(v.ty);
                        self.reply(
                            token,
                            format!(
                                "^done,found=\"1\",addr=\"0x{:x}\",\
                                 type=\"{}\"",
                                v.addr,
                                escape(&ty)
                            ),
                        );
                    }
                    None => self.reply(token, "^done,found=\"0\"".to_string()),
                }
            }
            "-duel-frame-var" => {
                let name = parts.first().cloned().unwrap_or_default();
                let frame = parts
                    .get(1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(0);
                match self.sim.get_variable_in_frame(&name, frame) {
                    Some(v) => {
                        let ty = self.sim.types().display(v.ty);
                        self.reply(
                            token,
                            format!(
                                "^done,found=\"1\",addr=\"0x{:x}\",\
                                 type=\"{}\"",
                                v.addr,
                                escape(&ty)
                            ),
                        );
                    }
                    None => self.reply(token, "^done,found=\"0\"".to_string()),
                }
            }
            "-duel-struct-info" | "-duel-union-info" => {
                let is_union = cmd == "-duel-union-info";
                let tag = parts.first().cloned().unwrap_or_default();
                let rid = if is_union {
                    self.sim.lookup_union(&tag)
                } else {
                    self.sim.lookup_struct(&tag)
                };
                match rid {
                    Some(rid) => {
                        let rec = self.sim.types().record(rid).clone();
                        if !rec.complete {
                            return self.reply(token, "^done,found=\"0\"".to_string());
                        }
                        let fields: Vec<String> = rec
                            .fields
                            .iter()
                            .map(|f| {
                                let ty = self.sim.types().display(f.ty);
                                let bits = f.bits.map(|b| b.to_string()).unwrap_or_default();
                                format!(
                                    "{{name=\"{}\",type=\"{}\",\
                                     bits=\"{}\"}}",
                                    escape(&f.name),
                                    escape(&ty),
                                    bits
                                )
                            })
                            .collect();
                        self.reply(
                            token,
                            format!("^done,found=\"1\",fields=[{}]", fields.join(",")),
                        );
                    }
                    None => self.reply(token, "^done,found=\"0\"".to_string()),
                }
            }
            "-duel-enum-info" => {
                let tag = parts.first().cloned().unwrap_or_default();
                match self.sim.lookup_enum(&tag) {
                    Some(eid) => {
                        let def = self.sim.types().enum_def(eid).clone();
                        let es: Vec<String> = def
                            .enumerators
                            .iter()
                            .map(|(n, v)| format!("{{name=\"{}\",value=\"{}\"}}", escape(n), v))
                            .collect();
                        self.reply(
                            token,
                            format!("^done,found=\"1\",enumerators=[{}]", es.join(",")),
                        );
                    }
                    None => self.reply(token, "^done,found=\"0\"".to_string()),
                }
            }
            "-duel-typedef-info" => {
                let name = parts.first().cloned().unwrap_or_default();
                match self.sim.lookup_typedef(&name) {
                    Some(ty) => {
                        let t = self.sim.types().display(ty);
                        self.reply(token, format!("^done,found=\"1\",type=\"{}\"", escape(&t)));
                    }
                    None => self.reply(token, "^done,found=\"0\"".to_string()),
                }
            }
            "-duel-alloc" => {
                let size = parts.first().and_then(|s| parse_u64(s)).unwrap_or(0);
                let align = parts.get(1).and_then(|s| parse_u64(s)).unwrap_or(8);
                match self.sim.alloc_space(size, align) {
                    Ok(a) => self.reply(token, format!("^done,addr=\"0x{a:x}\"")),
                    Err(e) => self.reply_error(token, &e.to_string()),
                }
            }
            "-duel-abi" => {
                let abi = self.sim.abi();
                let endian = match abi.endian {
                    duel_ctype::Endian::Little => "little",
                    duel_ctype::Endian::Big => "big",
                };
                self.reply(
                    token,
                    format!(
                        "^done,ptr=\"{}\",long=\"{}\",\
                         endian=\"{endian}\",char-signed=\"{}\"",
                        abi.pointer_bytes, abi.long_bytes, abi.char_signed as u8
                    ),
                );
            }
            "-duel-frame-count" => {
                let n = self.sim.frame_count();
                self.reply(token, format!("^done,count=\"{n}\""));
            }
            "-duel-frame-info" => {
                let n = parts
                    .first()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(0);
                match self.sim.frame_info(n) {
                    Some(f) => self.reply(
                        token,
                        format!(
                            "^done,func=\"{}\",line=\"{}\"",
                            escape(&f.function),
                            f.line.unwrap_or(0)
                        ),
                    ),
                    None => self.reply_error(token, "no such frame"),
                }
            }
            "-duel-has-function" => {
                let name = parts.first().cloned().unwrap_or_default();
                let has = self.sim.has_function(&name);
                self.reply(token, format!("^done,found=\"{}\"", has as u8));
            }
            other => {
                self.reply_error(token, &format!("Undefined MI command: {other}"));
            }
        }
    }

    /// Evaluates the expression subset the adapter uses: `&name` and
    /// `f(n1, n2, …)` calls with numeric arguments.
    fn evaluate(&mut self, token: &str, expr: &str) {
        let token = token.to_string();
        if let Some(name) = expr.strip_prefix('&') {
            match self.sim.get_variable(name.trim()) {
                Some(v) => self.reply(&token, format!("^done,value=\"0x{:x}\"", v.addr)),
                None => {
                    self.reply_error(&token, &format!("No symbol \"{name}\" in current context."))
                }
            }
            return;
        }
        // A call: name(args).
        if let Some(open) = expr.find('(') {
            let name = expr[..open].trim().to_string();
            let inner = expr[open + 1..].trim_end().trim_end_matches(')');
            let mut args = Vec::new();
            if !inner.trim().is_empty() {
                for a in inner.split(',') {
                    let a = a.trim();
                    let cv = if a.contains('.') {
                        match a.parse::<f64>() {
                            Ok(f) => {
                                let d = self.sim.core.types.prim(Prim::Double);
                                // 8-byte doubles always fit the call boundary.
                                CallValue::from_u64(d, f.to_bits(), 8, self.sim.abi()).unwrap()
                            }
                            Err(_) => return self.reply_error(&token, "bad float argument"),
                        }
                    } else {
                        match parse_i64(a) {
                            Some(v) => {
                                let long = self.sim.core.types.prim(Prim::LongLong);
                                CallValue::from_u64(long, v as u64, 8, self.sim.abi()).unwrap()
                            }
                            None => return self.reply_error(&token, "bad argument"),
                        }
                    };
                    args.push(cv);
                }
            }
            match self.sim.call_func(&name, &args) {
                Ok(r) => {
                    self.emit_target_output();
                    let v = r.to_u64(self.sim.abi());
                    let is_ptr = matches!(self.sim.types().kind(r.ty), TypeKind::Pointer(_));
                    let text = if is_ptr {
                        format!("0x{v:x}")
                    } else {
                        // Sign-extend through the declared width.
                        let size = r.bytes.len();
                        let sv = duel_target::value_io::sign_extend(v, size);
                        format!("{sv}")
                    };
                    self.reply(&token, format!("^done,value=\"{text}\""));
                }
                Err(e) => self.reply_error(&token, &e.to_string()),
            }
            return;
        }
        self.reply_error(&token, "unsupported expression");
    }
}

impl MiTransport for MockGdb {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        self.handle(line);
        Ok(())
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        self.queue.pop_front().ok_or(MiError::Disconnected)
    }
}

fn split_args(s: &str) -> Vec<String> {
    // Split on spaces, keeping quoted segments together.
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut prev_escape = false;
    for c in s.chars() {
        match c {
            '"' if !prev_escape => {
                in_str = !in_str;
                cur.push(c);
            }
            ' ' if !in_str => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_i64(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MiClient;
    use duel_target::scenario;

    #[test]
    fn memory_roundtrip_over_mi() {
        let mut sim = scenario::scan_array();
        let x = sim.get_variable("x").unwrap();
        let mut c = MiClient::new(MockGdb::new(sim));
        let r = c
            .execute(&crate::command::read_memory_bytes(x.addr + 12, 4))
            .unwrap();
        let mem = r.get("memory").unwrap();
        assert_eq!(
            mem.items()[0].get_str("contents"),
            Some("07000000") // x[3] = 7, little-endian
        );
        // Write and read back.
        c.execute(&crate::command::write_memory_bytes(
            x.addr + 12,
            &42i32.to_le_bytes(),
        ))
        .unwrap();
        let r = c
            .execute(&crate::command::read_memory_bytes(x.addr + 12, 4))
            .unwrap();
        assert_eq!(
            r.get("memory").unwrap().items()[0].get_str("contents"),
            Some("2a000000")
        );
    }

    #[test]
    fn unmapped_reads_are_mi_errors() {
        let sim = scenario::scan_array();
        let mut c = MiClient::new(MockGdb::new(sim));
        match c.execute(&crate::command::read_memory_bytes(0x99, 4)) {
            Err(MiError::ErrorRecord(m)) => {
                assert!(m.contains("illegal memory"), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn symbol_and_type_info() {
        let sim = scenario::hash_table_basic();
        let mut c = MiClient::new(MockGdb::new(sim));
        let r = c.execute(&crate::command::symbol_info("hash")).unwrap();
        assert_eq!(r.get("found").unwrap().as_str(), Some("1"));
        assert_eq!(
            r.get("type").unwrap().as_str(),
            Some("struct symbol *[1024]")
        );
        let r = c
            .execute(&crate::command::record_info("symbol", false))
            .unwrap();
        let fields = match r.get("fields").unwrap() {
            crate::syntax::MiValue::List(v) => v.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[1].get_str("name"), Some("scope"));
        assert_eq!(fields[1].get_str("type"), Some("int"));
    }

    #[test]
    fn calls_relay_target_output() {
        let sim = scenario::scan_array();
        let mut c = MiClient::new(MockGdb::new(sim));
        // Allocate a format string in target space via the mock, then
        // write it and call printf on it.
        let r = c.execute(&crate::command::alloc(8, 1)).unwrap();
        let addr = parse_u64(r.get("addr").unwrap().as_str().unwrap()).unwrap();
        c.execute(&crate::command::write_memory_bytes(addr, b"n=%d\n\0"))
            .unwrap();
        let r = c
            .execute(&crate::command::evaluate(&format!("printf({addr}, 42)")))
            .unwrap();
        assert_eq!(r.get("value").unwrap().as_str(), Some("5"));
        assert_eq!(c.take_target_out(), "n=42\n");
    }

    #[test]
    fn abi_query() {
        let sim = scenario::scan_array();
        let mut c = MiClient::new(MockGdb::new(sim));
        let r = c.execute(&crate::command::abi()).unwrap();
        assert_eq!(r.get("ptr").unwrap().as_str(), Some("8"));
        assert_eq!(r.get("endian").unwrap().as_str(), Some("little"));
    }
}
