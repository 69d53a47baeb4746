//! [`MiTarget`] — the paper's narrow debugger interface over gdb/MI.
//!
//! This is the reproduction's analogue of the paper's 400-line gdb
//! interface module, with the same duties: "converting between gdb and
//! Duel types" (here: parsing C type strings back into a local
//! [`TypeTable`], fetching struct/union/enum definitions lazily),
//! "symbol-table functions", and "accessing the target's address
//! space" (`-data-read-memory-bytes` / `-data-write-memory-bytes`).

use std::collections::{BTreeSet, HashSet};

use duel_ctype::{Abi, Endian, EnumId, Prim, RecordId, TypeId, TypeTable};
use duel_target::{
    CallValue, FrameInfo, ReadRange, ResyncReport, Target, TargetError, TargetResult, VarInfo,
    VarKind,
};

use crate::{client::MiClient, command, MiError, MiTransport};

/// A [`Target`] that speaks gdb/MI to a debugger.
pub struct MiTarget<T: MiTransport> {
    client: MiClient<T>,
    types: TypeTable,
    abi: Abi,
    fetched_records: HashSet<String>,
    fetched_enums: HashSet<String>,
    /// Every symbol name successfully resolved this session — the
    /// working set [`MiTarget::reattach`] re-resolves after a backend
    /// respawn.
    resolved: BTreeSet<String>,
}

pub(crate) fn to_target_err(e: MiError) -> TargetError {
    match e {
        MiError::ErrorRecord(m) if m.contains("illegal memory") => {
            // Surface address-space faults in their native form so DUEL
            // error messages stay uniform across backends.
            parse_illegal(&m)
        }
        other => TargetError::Backend(other.to_string()),
    }
}

fn parse_illegal(m: &str) -> TargetError {
    // The simulator formats faults as "illegal memory reference:
    // N byte(s) at 0xADDR", but a real gdb has its own wording.
    // Reconstruct the structured fault only when an address actually
    // parses; otherwise pass the message through unmangled rather than
    // inventing address 0.
    let addr = m.rfind("0x").and_then(|i| {
        let hex = &m[i + 2..];
        let end = hex
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(hex.len());
        u64::from_str_radix(&hex[..end], 16).ok()
    });
    let len = m
        .split(':')
        .nth(1)
        .and_then(|t| t.trim().split(' ').next())
        .and_then(|n| n.parse().ok());
    match addr {
        Some(addr) => TargetError::IllegalMemory {
            addr,
            len: len.unwrap_or(1),
        },
        None => TargetError::Backend(m.to_string()),
    }
}

impl<T: MiTransport> MiTarget<T> {
    /// Connects over a transport, querying the target ABI.
    pub fn connect(transport: T) -> TargetResult<MiTarget<T>> {
        let mut client = MiClient::new(transport);
        let r = client.execute(&command::abi()).map_err(to_target_err)?;
        let abi = parse_abi(&r)?;
        Ok(MiTarget {
            client,
            types: TypeTable::new(),
            abi,
            fetched_records: HashSet::new(),
            fetched_enums: HashSet::new(),
            resolved: BTreeSet::new(),
        })
    }

    /// Replaces the transport with a freshly spawned one and resyncs
    /// session state: re-runs the ABI handshake (refusing a backend
    /// whose ABI changed — aliases and cached type IDs would be
    /// meaningless), verifies every previously imported record still
    /// has the same shape on the new backend, re-resolves every symbol
    /// the session has seen, and re-counts stack frames.
    ///
    /// The local [`TypeTable`] is *kept*: outstanding `TypeId`s (held
    /// by aliases and generator state above this layer) stay valid, and
    /// the verification pass reports drift via
    /// [`ResyncReport::type_table_ok`] instead of silently importing a
    /// contradictory snapshot.
    pub fn reattach(&mut self, transport: T) -> TargetResult<ResyncReport> {
        let mut client = MiClient::new(transport);
        let r = client.execute(&command::abi()).map_err(to_target_err)?;
        let abi = parse_abi(&r)?;
        if abi != self.abi {
            return Err(TargetError::Backend(
                "ABI changed across reconnect; session state cannot be resynced".into(),
            ));
        }
        self.client = client;
        // Type-table snapshot verification: every record imported
        // before the reconnect must still exist with the same field
        // list on the new backend (a mismatch means the debuggee was
        // rebuilt underneath us).
        let mut type_table_ok = true;
        let mut mismatch = String::new();
        let keys: Vec<String> = self.fetched_records.iter().cloned().collect();
        for key in keys {
            let is_union = key.starts_with("u:");
            let tag = key[2..].to_string();
            let before: Option<Vec<String>> = (if is_union {
                self.types.union_tag(&tag)
            } else {
                self.types.struct_tag(&tag)
            })
            .filter(|rid| self.types.record(*rid).complete)
            .map(|rid| {
                self.types
                    .record(rid)
                    .fields
                    .iter()
                    .map(|f| f.name.clone())
                    .collect()
            });
            let r = self
                .client
                .execute(&command::record_info(&tag, is_union))
                .map_err(to_target_err)?;
            let after: Option<Vec<String>> = if r.get("found").and_then(|v| v.as_str()) == Some("1")
            {
                r.get("fields").map(|fv| {
                    fv.items()
                        .iter()
                        .filter_map(|f| f.get_str("name").map(|s| s.to_string()))
                        .collect()
                })
            } else {
                None
            };
            if before != after {
                type_table_ok = false;
                mismatch = format!(
                    "record `{tag}` {} across reconnect",
                    if after.is_none() {
                        "lost"
                    } else {
                        "changed shape"
                    }
                );
            }
        }
        // Re-resolve the session's symbol working set against the new
        // backend (which also refreshes their addresses in the MI log).
        let names: Vec<String> = self.resolved.iter().cloned().collect();
        let mut symbols = 0;
        for n in &names {
            if self.get_variable(n).is_some() {
                symbols += 1;
            }
        }
        let frames = self.frame_count();
        Ok(ResyncReport {
            symbols,
            frames,
            type_table_ok,
            detail: if type_table_ok {
                "respawned MI process".to_string()
            } else {
                mismatch
            },
        })
    }

    /// The underlying client (e.g. to inspect the command log of a
    /// mock).
    pub fn client_mut(&mut self) -> &mut MiClient<T> {
        &mut self.client
    }

    // ----- type-string parsing -------------------------------------------

    /// Parses a C type string as rendered by `ptype`-style output
    /// (`"struct symbol *[1024]"`), importing record/enum definitions
    /// on demand.
    pub fn parse_type(&mut self, s: &str) -> TargetResult<TypeId> {
        let s = s.trim();
        // Split off trailing array dimensions.
        let mut dims: Vec<Option<u64>> = Vec::new();
        let mut head = s;
        while let Some(open) = head.rfind('[') {
            let close = head[open..]
                .find(']')
                .map(|c| open + c)
                .ok_or_else(|| bad_type(s))?;
            if close != head.trim_end().len() - 1 {
                break;
            }
            let inner = head[open + 1..close].trim();
            let dim = if inner.is_empty() {
                None
            } else {
                Some(inner.parse().map_err(|_| bad_type(s))?)
            };
            dims.insert(0, dim);
            head = head[..open].trim_end();
        }
        // Split off pointer stars.
        let mut stars = 0;
        let mut base = head.trim_end();
        while let Some(stripped) = base.strip_suffix('*') {
            stars += 1;
            base = stripped.trim_end();
        }
        let mut ty = self.parse_base(base)?;
        for _ in 0..stars {
            ty = self.types.pointer(ty);
        }
        // Dimensions apply innermost-first: `int [3][4]` is an array
        // of 3 arrays of 4 ints.
        for d in dims.into_iter().rev() {
            ty = self.types.array(ty, d);
        }
        Ok(ty)
    }

    fn parse_base(&mut self, base: &str) -> TargetResult<TypeId> {
        if let Some(tag) = base.strip_prefix("struct ") {
            return self.ensure_record(tag.trim(), false);
        }
        if let Some(tag) = base.strip_prefix("union ") {
            return self.ensure_record(tag.trim(), true);
        }
        if let Some(tag) = base.strip_prefix("enum ") {
            let eid = self
                .ensure_enum(tag.trim())?
                .ok_or_else(|| bad_type(base))?;
            let def = self.types.enum_def(eid).clone();
            return Ok(self.types.define_enum(Some(tag.trim()), def.enumerators).1);
        }
        let prim = match base {
            "void" => return Ok(self.types.void()),
            "char" => Prim::Char,
            "signed char" => Prim::SChar,
            "unsigned char" => Prim::UChar,
            "short" => Prim::Short,
            "unsigned short" => Prim::UShort,
            "int" => Prim::Int,
            "unsigned int" => Prim::UInt,
            "long" => Prim::Long,
            "unsigned long" => Prim::ULong,
            "long long" => Prim::LongLong,
            "unsigned long long" => Prim::ULongLong,
            "float" => Prim::Float,
            "double" => Prim::Double,
            other => {
                // A typedef name.
                if let Some(ty) = self.fetch_typedef(other)? {
                    return Ok(ty);
                }
                return Err(bad_type(other));
            }
        };
        Ok(self.types.prim(prim))
    }

    fn ensure_record(&mut self, tag: &str, is_union: bool) -> TargetResult<TypeId> {
        let (_, ty) = if is_union {
            self.types.declare_union(tag)
        } else {
            self.types.declare_struct(tag)
        };
        let key = format!("{}{tag}", if is_union { "u:" } else { "s:" });
        if self.fetched_records.contains(&key) {
            return Ok(ty);
        }
        self.fetched_records.insert(key);
        let r = self
            .client
            .execute(&command::record_info(tag, is_union))
            .map_err(to_target_err)?;
        if r.get("found").and_then(|v| v.as_str()) != Some("1") {
            // Leave it declared but incomplete.
            return Ok(ty);
        }
        let fields_val = r
            .get("fields")
            .cloned()
            .ok_or(TargetError::Backend("missing fields".into()))?;
        let mut fields = Vec::new();
        for f in fields_val.items() {
            let name = f
                .get_str("name")
                .ok_or(TargetError::Backend("field name".into()))?
                .to_string();
            let tystr = f
                .get_str("type")
                .ok_or(TargetError::Backend("field type".into()))?
                .to_string();
            let fty = self.parse_type(&tystr)?;
            let bits = f
                .get_str("bits")
                .filter(|s| !s.is_empty())
                .and_then(|s| s.parse::<u8>().ok());
            fields.push(match bits {
                Some(w) => duel_ctype::Field::bitfield(&name, fty, w),
                None => duel_ctype::Field::new(&name, fty),
            });
        }
        let rid = if is_union {
            self.types.declare_union(tag).0
        } else {
            self.types.declare_struct(tag).0
        };
        self.types.define_record(rid, fields);
        Ok(ty)
    }

    fn ensure_enum(&mut self, tag: &str) -> TargetResult<Option<EnumId>> {
        if self.fetched_enums.contains(tag) {
            return Ok(self.types.enum_tag(tag));
        }
        self.fetched_enums.insert(tag.to_string());
        let r = self
            .client
            .execute(&command::enum_info(tag))
            .map_err(to_target_err)?;
        if r.get("found").and_then(|v| v.as_str()) != Some("1") {
            return Ok(None);
        }
        let mut enumerators = Vec::new();
        if let Some(list) = r.get("enumerators") {
            for e in list.items() {
                let name = e.get_str("name").unwrap_or_default().to_string();
                let v: i64 = e.get_str("value").and_then(|s| s.parse().ok()).unwrap_or(0);
                enumerators.push((name, v));
            }
        }
        let (eid, _) = self.types.define_enum(Some(tag), enumerators);
        Ok(Some(eid))
    }

    fn fetch_typedef(&mut self, name: &str) -> TargetResult<Option<TypeId>> {
        if let Some(ty) = self.types.typedef(name) {
            return Ok(Some(ty));
        }
        let r = self
            .client
            .execute(&command::typedef_info(name))
            .map_err(to_target_err)?;
        if r.get("found").and_then(|v| v.as_str()) != Some("1") {
            return Ok(None);
        }
        let tystr = r
            .get("type")
            .and_then(|v| v.as_str())
            .ok_or(TargetError::Backend("typedef type".into()))?
            .to_string();
        let ty = self.parse_type(&tystr)?;
        self.types.define_typedef(name, ty);
        Ok(Some(ty))
    }

    fn var_from_results(
        &mut self,
        r: &std::collections::BTreeMap<String, crate::MiValue>,
        name: &str,
        kind: VarKind,
    ) -> TargetResult<Option<VarInfo>> {
        if r.get("found").and_then(|v| v.as_str()) != Some("1") {
            return Ok(None);
        }
        let addr = r
            .get("addr")
            .and_then(|v| v.as_str())
            .and_then(parse_hex)
            .ok_or(TargetError::Backend("symbol addr".into()))?;
        let tystr = r
            .get("type")
            .and_then(|v| v.as_str())
            .ok_or(TargetError::Backend("symbol type".into()))?
            .to_string();
        let ty = self.parse_type(&tystr)?;
        Ok(Some(VarInfo {
            name: name.to_string(),
            addr,
            ty,
            kind,
        }))
    }
}

fn parse_abi(r: &std::collections::BTreeMap<String, crate::MiValue>) -> TargetResult<Abi> {
    let get =
        |k: &str| -> Option<String> { r.get(k).and_then(|v| v.as_str()).map(|s| s.to_string()) };
    let ptr: u64 = get("ptr")
        .and_then(|s| s.parse().ok())
        .ok_or(TargetError::Backend("missing ptr size".into()))?;
    let long: u64 = get("long").and_then(|s| s.parse().ok()).unwrap_or(ptr);
    let endian = match get("endian").as_deref() {
        Some("big") => Endian::Big,
        _ => Endian::Little,
    };
    let char_signed = get("char-signed").as_deref() != Some("0");
    Ok(Abi {
        pointer_bytes: ptr,
        long_bytes: long,
        endian,
        char_signed,
        max_align: if ptr == 8 { 16 } else { 8 },
    })
}

fn bad_type(s: &str) -> TargetError {
    TargetError::Backend(format!("cannot parse type string `{s}`"))
}

fn parse_hex(s: &str) -> Option<u64> {
    let h = s.strip_prefix("0x")?;
    u64::from_str_radix(h, 16).ok()
}

/// Decodes one `-data-read-memory-bytes` result into `buf`.
fn decode_read_reply(
    r: &std::collections::BTreeMap<String, crate::syntax::MiValue>,
    buf: &mut [u8],
) -> TargetResult<()> {
    let mem = r
        .get("memory")
        .ok_or(TargetError::Backend("missing memory".into()))?;
    let first = mem
        .items()
        .first()
        .ok_or(TargetError::Backend("empty memory list".into()))?;
    let hex = first
        .get_str("contents")
        .ok_or(TargetError::Backend("missing contents".into()))?;
    if hex.len() != buf.len() * 2 {
        return Err(TargetError::Backend("short read".into()));
    }
    for (i, chunk) in buf.iter_mut().enumerate() {
        *chunk = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16)
            .map_err(|_| TargetError::Backend("bad hex".into()))?;
    }
    Ok(())
}

impl<T: MiTransport> Target for MiTarget<T> {
    fn abi(&self) -> &Abi {
        &self.abi
    }

    fn types(&self) -> &TypeTable {
        &self.types
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        let r = self
            .client
            .execute(&command::read_memory_bytes(addr, buf.len() as u64))
            .map_err(to_target_err)?;
        decode_read_reply(&r, buf)
    }

    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        // One pipelined MI turn: every `-data-read-memory-bytes` goes
        // out before any reply is read, so N ranges cost one wire
        // round-trip instead of N.
        let cmds: Vec<String> = ranges
            .iter()
            .map(|r| command::read_memory_bytes(r.addr, r.buf.len() as u64))
            .collect();
        let replies = match self.client.execute_batch(&cmds) {
            Ok(rs) => rs,
            Err(e) => {
                let e = to_target_err(e);
                return ranges.iter().map(|_| Err(e.clone())).collect();
            }
        };
        ranges
            .iter_mut()
            .zip(replies)
            .map(|(r, reply)| match reply {
                Ok(res) => decode_read_reply(&res, r.buf),
                Err(e) => Err(to_target_err(e)),
            })
            .collect()
    }

    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        self.client
            .execute(&command::write_memory_bytes(addr, bytes))
            .map_err(to_target_err)?;
        Ok(())
    }

    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        let r = self
            .client
            .execute(&command::alloc(size, align))
            .map_err(to_target_err)?;
        r.get("addr")
            .and_then(|v| v.as_str())
            .and_then(parse_hex)
            .ok_or(TargetError::Backend("alloc addr".into()))
    }

    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        let mut rendered = Vec::with_capacity(args.len());
        for a in args {
            let raw = a.to_u64(&self.abi);
            let is_float = matches!(
                self.types.kind(a.ty),
                duel_ctype::TypeKind::Prim(p) if p.is_float()
            );
            if is_float {
                let f = if a.bytes.len() == 4 {
                    f32::from_bits(raw as u32) as f64
                } else {
                    f64::from_bits(raw)
                };
                let mut s = format!("{f}");
                if !s.contains('.') && !s.contains('e') {
                    s.push_str(".0");
                }
                rendered.push(s);
            } else {
                let sv = duel_target::value_io::sign_extend(raw, a.bytes.len());
                rendered.push(format!("{sv}"));
            }
        }
        let expr = format!("{name}({})", rendered.join(", "));
        let r = self
            .client
            .execute(&command::evaluate(&expr))
            .map_err(|e| match e {
                MiError::ErrorRecord(m) => TargetError::CallFailed {
                    func: name.to_string(),
                    reason: m,
                },
                other => to_target_err(other),
            })?;
        let v = r
            .get("value")
            .and_then(|v| v.as_str())
            .ok_or(TargetError::Backend("call value".into()))?;
        if let Some(p) = parse_hex(v) {
            let void = self.types.void();
            let pv = self.types.pointer(void);
            return CallValue::from_u64(pv, p, self.abi.pointer_bytes as usize, &self.abi);
        }
        let n: i64 = v
            .parse()
            .map_err(|_| TargetError::Backend(format!("bad call value `{v}`")))?;
        let long = self.types.prim(Prim::LongLong);
        CallValue::from_u64(long, n as u64, 8, &self.abi)
    }

    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        let r = self.client.execute(&command::symbol_info(name)).ok()?;
        let v = self
            .var_from_results(&r, name, VarKind::Global)
            .ok()
            .flatten();
        if v.is_some() {
            self.resolved.insert(name.to_string());
        }
        v
    }

    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        let r = self.client.execute(&command::frame_var(name, frame)).ok()?;
        self.var_from_results(&r, name, VarKind::Local { frame })
            .ok()
            .flatten()
    }

    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        self.fetch_typedef(name).ok().flatten()
    }

    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        self.ensure_record(tag, false).ok()?;
        let rid = self.types.struct_tag(tag)?;
        if self.types.record(rid).complete {
            Some(rid)
        } else {
            None
        }
    }

    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        self.ensure_record(tag, true).ok()?;
        let rid = self.types.union_tag(tag)?;
        if self.types.record(rid).complete {
            Some(rid)
        } else {
            None
        }
    }

    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        self.ensure_enum(tag).ok().flatten()
    }

    fn has_function(&mut self, name: &str) -> bool {
        self.client
            .execute(&command::has_function(name))
            .ok()
            .and_then(|r| r.get("found").and_then(|v| v.as_str()).map(|s| s == "1"))
            .unwrap_or(false)
    }

    fn frame_count(&mut self) -> usize {
        self.client
            .execute(&command::frame_count())
            .ok()
            .and_then(|r| {
                r.get("count")
                    .and_then(|v| v.as_str())
                    .and_then(|s| s.parse().ok())
            })
            .unwrap_or(0)
    }

    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        let r = self.client.execute(&command::frame_info(n)).ok()?;
        let function = r.get("func")?.as_str()?.to_string();
        let line: u32 = r
            .get("line")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Some(FrameInfo {
            function,
            line: if line == 0 { None } else { Some(line) },
        })
    }

    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        // Probe the first and last byte; MI has no mapping query, so a
        // read attempt is the portable check (as gdb users do). Both
        // probes go out as one pipelined batch: one wire turn.
        let Some(last) = addr.checked_add(len - 1) else {
            return false;
        };
        let (mut first_b, mut last_b) = ([0u8; 1], [0u8; 1]);
        let mut probes = vec![ReadRange::new(addr, &mut first_b)];
        if last != addr {
            probes.push(ReadRange::new(last, &mut last_b));
        }
        self.get_bytes_multi(&mut probes).iter().all(|r| r.is_ok())
    }

    fn take_output(&mut self) -> String {
        self.client.take_target_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockGdb;
    use duel_target::{scenario, CachedTarget, RetryPolicy, RetryTarget, TraceTarget};

    fn connect(sim: duel_target::SimTarget) -> MiTarget<MockGdb> {
        MiTarget::connect(MockGdb::new(sim)).unwrap()
    }

    #[test]
    fn abi_is_negotiated() {
        let t = connect(scenario::scan_array());
        assert_eq!(t.abi().pointer_bytes, 8);
        assert_eq!(t.abi().endian, Endian::Little);
    }

    #[test]
    fn memory_roundtrip() {
        let mut t = connect(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        t.put_bytes(x.addr + 12, &(-5i32).to_le_bytes()).unwrap();
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), -5);
    }

    #[test]
    fn vectored_read_is_one_pipelined_turn_with_per_range_errors() {
        let mut t = connect(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut bad = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr + 12, &mut a),
            ReadRange::new(0x10, &mut bad), // outside the arena
            ReadRange::new(x.addr + 72, &mut b),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert_eq!(rs[0], Ok(()));
        assert!(
            matches!(rs[1], Err(TargetError::IllegalMemory { .. })),
            "{rs:?}"
        );
        assert_eq!(rs[2], Ok(()));
        assert_eq!(i32::from_le_bytes(a), 7);
        assert_eq!(i32::from_le_bytes(b), 9);
    }

    #[test]
    fn types_are_imported_lazily() {
        let mut t = connect(scenario::hash_table_basic());
        let hash = t.get_variable("hash").unwrap();
        // The imported type renders identically to the original.
        assert_eq!(t.types().display(hash.ty), "struct symbol *[1024]");
        // The struct definition came across with all three fields.
        let rid = t.lookup_struct("symbol").unwrap();
        let rec = t.types().record(rid);
        assert_eq!(rec.fields.len(), 3);
        assert_eq!(rec.fields[1].name, "scope");
    }

    #[test]
    fn unknown_symbols_are_none() {
        let mut t = connect(scenario::scan_array());
        assert!(t.get_variable("nonesuch").is_none());
        assert!(t.lookup_struct("nope").is_none());
        assert!(t.lookup_enum("nope").is_none());
    }

    #[test]
    fn is_mapped_probes() {
        let mut t = connect(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        assert!(t.is_mapped(x.addr, 4));
        assert!(!t.is_mapped(0, 1));
        assert!(!t.is_mapped(0xdead_beef_0000, 8));
        assert!(!t.is_mapped(u64::MAX - 2, 8), "a range past the top");
    }

    /// A transport that counts wire turns: send → receive transitions,
    /// so a pipelined batch counts once.
    struct Turns {
        inner: MockGdb,
        sent: bool,
        turns: u64,
    }

    impl MiTransport for Turns {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            self.sent = true;
            self.inner.send_line(line)
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            if std::mem::take(&mut self.sent) {
                self.turns += 1;
            }
            self.inner.recv_line()
        }
    }

    #[test]
    fn is_mapped_probes_both_ends_in_one_turn() {
        let mut t = MiTarget::connect(Turns {
            inner: MockGdb::new(scenario::scan_array()),
            sent: false,
            turns: 0,
        })
        .unwrap();
        let x = t.get_variable("x").unwrap();
        let probe = |t: &mut MiTarget<Turns>, addr: u64, len: u64| {
            let before = t.client_mut().transport().turns;
            let mapped = t.is_mapped(addr, len);
            (mapped, t.client_mut().transport().turns - before)
        };
        assert_eq!(probe(&mut t, x.addr, 8), (true, 1));
        assert_eq!(probe(&mut t, 0xdead_beef_0000, 8), (false, 1));
        // scan_array's arena is 240 bytes: the last byte lies outside.
        assert_eq!(probe(&mut t, x.addr + 236, 8), (false, 1));
        assert_eq!(probe(&mut t, x.addr, 1), (true, 1));
        assert_eq!(probe(&mut t, x.addr, 0), (true, 0));
    }

    // ---- MI error-record → TargetError mapping --------------------------

    #[test]
    fn illegal_memory_messages_roundtrip() {
        // The simulator's fault rendering must survive the trip through
        // an MI `^error` record and come back out structured.
        let e = TargetError::IllegalMemory {
            addr: 0x2f00,
            len: 4,
        };
        assert_eq!(to_target_err(MiError::ErrorRecord(e.to_string())), e);
    }

    #[test]
    fn illegal_memory_without_address_keeps_the_message() {
        // A debugger wording the fault its own way (no hex address)
        // must not be mangled into `addr: 0`.
        let m = "illegal memory reference while accessing inferior";
        assert_eq!(
            to_target_err(MiError::ErrorRecord(m.to_string())),
            TargetError::Backend(m.to_string())
        );
    }

    #[test]
    fn illegal_memory_with_trailing_punctuation() {
        assert_eq!(
            parse_illegal("illegal memory reference: 8 byte(s) at 0xdead."),
            TargetError::IllegalMemory {
                addr: 0xdead,
                len: 8
            }
        );
        // Missing length falls back to one byte.
        assert_eq!(
            parse_illegal("illegal memory reference at 0x10"),
            TargetError::IllegalMemory { addr: 0x10, len: 1 }
        );
    }

    #[test]
    fn other_errors_map_to_backend() {
        assert!(matches!(
            to_target_err(MiError::Disconnected),
            TargetError::Backend(_)
        ));
        assert!(matches!(
            to_target_err(MiError::ErrorRecord("No symbol \"zz\"".into())),
            TargetError::Backend(_)
        ));
    }

    // ---- retry wiring ---------------------------------------------------

    /// A transport that drops the next `fail_next` sends on the floor.
    struct Flaky<T> {
        inner: T,
        fail_next: u32,
    }

    impl<T: MiTransport> MiTransport for Flaky<T> {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(MiError::Disconnected);
            }
            self.inner.send_line(line)
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            self.inner.recv_line()
        }
    }

    #[test]
    fn transient_transport_failures_are_retried() {
        let flaky = Flaky {
            inner: MockGdb::new(scenario::scan_array()),
            fail_next: 0,
        };
        let mut t =
            RetryTarget::with_policy(MiTarget::connect(flaky).unwrap(), RetryPolicy::fast(3));
        let x = t.get_variable("x").unwrap();
        t.inner_mut().client_mut().transport_mut().fail_next = 2;
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert_eq!(t.retries(), 2);
    }

    #[test]
    fn exhausted_retries_surface_the_transport_error() {
        let flaky = Flaky {
            inner: MockGdb::new(scenario::scan_array()),
            fail_next: 0,
        };
        let mut t =
            RetryTarget::with_policy(MiTarget::connect(flaky).unwrap(), RetryPolicy::fast(2));
        t.inner_mut().client_mut().transport_mut().fail_next = 10;
        let mut buf = [0u8; 4];
        let err = t.get_bytes(0x1000, &mut buf).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(t.retries(), 2);
    }

    #[test]
    fn faults_pass_through_retry_unchanged() {
        let flaky = Flaky {
            inner: MockGdb::new(scenario::scan_array()),
            fail_next: 0,
        };
        let mut t =
            RetryTarget::with_policy(MiTarget::connect(flaky).unwrap(), RetryPolicy::fast(3));
        let mut buf = [0u8; 4];
        let err = t.get_bytes(0x10, &mut buf).unwrap_err();
        assert!(matches!(err, TargetError::IllegalMemory { .. }), "{err}");
        assert_eq!(t.retries(), 0, "faults must not be retried");
    }

    // ---- cache wiring ---------------------------------------------------

    /// The production stack over an MI connection: the cache inside
    /// retry, so a retried operation re-enters the cache (a transient
    /// failure cannot strand half-fetched pages) while every miss that
    /// reaches the wire is still retried.
    fn cached<T: MiTransport>(transport: T) -> RetryTarget<CachedTarget<MiTarget<T>>> {
        let mi = MiTarget::connect(transport).unwrap();
        RetryTarget::with_policy(CachedTarget::new(mi), RetryPolicy::fast(3))
    }

    #[test]
    fn cached_stack_coalesces_wire_reads() {
        let mut t = cached(MockGdb::new(scenario::scan_array()));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // 16 adjacent ints share one 64-byte page: one MI round-trip.
        for i in 0..16u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        assert_eq!(i32::from_le_bytes(buf), 115);
        let stats = t.inner().stats();
        assert_eq!(stats.backend_reads, 1, "{stats:?}");
        assert_eq!(stats.page_hits, 15);
    }

    #[test]
    fn cached_stack_retries_transient_failures_without_poisoning() {
        let flaky = Flaky {
            inner: MockGdb::new(scenario::scan_array()),
            fail_next: 0,
        };
        let mut t = cached(flaky);
        let x = t.get_variable("x").unwrap();
        t.inner_mut()
            .inner_mut()
            .client_mut()
            .transport_mut()
            .fail_next = 2;
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert!(t.retries() >= 1);
        // The page that finally made it across is sound: nearby reads
        // come from cache and agree with the debuggee.
        let reads = t.inner().stats().backend_reads;
        t.get_bytes(x.addr + 8, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 102);
        assert_eq!(t.inner().stats().backend_reads, reads);
    }

    /// A transport that passes `pass` sends, then drops one.
    struct FailOnce<T> {
        inner: T,
        pass: Option<u32>,
    }

    impl<T: MiTransport> MiTransport for FailOnce<T> {
        fn send_line(&mut self, line: &str) -> Result<(), MiError> {
            match self.pass {
                Some(0) => {
                    self.pass = None;
                    Err(MiError::Disconnected)
                }
                Some(n) => {
                    self.pass = Some(n - 1);
                    self.inner.send_line(line)
                }
                None => self.inner.send_line(line),
            }
        }

        fn recv_line(&mut self) -> Result<String, MiError> {
            self.inner.recv_line()
        }
    }

    #[test]
    fn a_flake_on_the_fault_probe_is_not_a_fault() {
        let flaky = FailOnce {
            inner: MockGdb::new(scenario::scan_array()),
            pass: None,
        };
        let mut t = cached(flaky);
        let x = t.get_variable("x").unwrap();
        // x[58..60] is mapped, but its page runs past the 240-byte
        // arena: the page fetch faults (send 1) and the `is_mapped`
        // probe (send 2) meets the flake.
        t.inner_mut().inner_mut().client_mut().transport_mut().pass = Some(1);
        let mut buf = [0u8; 8];
        t.get_bytes(x.addr + 232, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf[..4].try_into().unwrap()), 158);
        assert_eq!(i32::from_le_bytes(buf[4..].try_into().unwrap()), 159);
        let stats = t.inner().stats();
        assert_eq!((stats.backend_reads, stats.mapped_probes), (2, 1));
        assert!(t.inner().inner().client.transport().pass.is_none());
    }

    // ---- trace wiring ---------------------------------------------------

    /// [`cached`] with a trace layer at both ends: the outer `session`
    /// layer counts what the evaluator asks for, the inner `wire` layer
    /// what crosses the MI transport.
    #[allow(clippy::type_complexity)]
    fn traced<T: MiTransport>(
        transport: T,
    ) -> TraceTarget<RetryTarget<CachedTarget<TraceTarget<MiTarget<T>>>>> {
        let wire = TraceTarget::with_label(MiTarget::connect(transport).unwrap(), "wire");
        let retry = RetryTarget::with_policy(CachedTarget::new(wire), RetryPolicy::fast(3));
        TraceTarget::with_label(retry, "session")
    }

    #[test]
    fn traced_stack_separates_session_from_wire_traffic() {
        let flaky = Flaky {
            inner: MockGdb::new(scenario::scan_array()),
            fail_next: 0,
        };
        let mut t = traced(flaky);
        let session = t.handle();
        let wire = t.inner().inner().inner().handle();
        session.set_enabled(true);
        wire.set_enabled(true);
        // The outermost decorator answers trace_handle() for dyn users.
        let dyn_handle = duel_target::Target::trace_handle(&t).unwrap();
        assert!(dyn_handle.is_enabled());

        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        // 16 adjacent ints share one page: 16 session reads, 1 wire read.
        for i in 0..16u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        assert_eq!(session.reads(), 16);
        assert_eq!(wire.reads(), 1, "cache hits must not reach the wire");

        // A transient burst: one session-level read, but every retry
        // attempt is its own wire event.
        t.inner_mut()
            .inner_mut()
            .inner_mut()
            .inner_mut()
            .client_mut()
            .transport_mut()
            .fail_next = 2;
        t.get_bytes(x.addr + 16 * 4, &mut buf).unwrap();
        assert_eq!(session.reads(), 17);
        assert_eq!(
            wire.reads(),
            4,
            "2 failed attempts + 1 success + page fetch"
        );
    }

    #[test]
    fn traced_stack_shares_one_span_context_end_to_end() {
        // The tower is built inside-out, so the outer "session"
        // TraceTarget constructs last and pushes its span context down
        // through retry and cache into the inner "wire" layer — both
        // trace layers must attribute events to the SAME context, or
        // wire events would carry span ids no exported tree contains.
        let mut t = traced(MockGdb::new(scenario::scan_array()));
        let outer = t.spans();
        let inner = t.inner().inner().inner().spans();
        assert!(
            outer.same_as(&inner),
            "inner wire TraceTarget must adopt the outer span context"
        );
        // Discovery through the trait object resolves to that one
        // context too.
        let discovered = duel_target::Target::span_context(&t).unwrap();
        assert!(discovered.same_as(&outer));

        // With spans on, a wire event recorded below retry+cache still
        // chains to the root opened above the whole tower.
        outer.set_enabled(true);
        t.handle().set_enabled(true);
        t.inner().inner().inner().handle().set_enabled(true);
        outer.begin_trace();
        let root = outer.push(duel_target::SpanKind::Root, "eval", || "x[0]".into());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        outer.pop(root);
        let snap = outer.snapshot();
        let events = t.inner().inner().inner().handle().recent_events(usize::MAX);
        assert!(!events.is_empty());
        let (ok, total) = duel_target::attribution_coverage(&snap, &events);
        assert_eq!(ok, total, "every wire event must chain to the eval root");
    }

    #[test]
    fn calls_work_and_relay_output() {
        let mut t = connect(scenario::scan_array());
        // Allocate and fill a format string, then call printf.
        let addr = t.alloc_space(8, 1).unwrap();
        t.put_bytes(addr, b"v=%d\n\0").unwrap();
        let ch = t.types_mut().prim(Prim::Char);
        let pc = t.types_mut().pointer(ch);
        let int = t.types_mut().prim(Prim::Int);
        let args = [
            CallValue::from_u64(pc, addr, 8, &Abi::lp64()).unwrap(),
            CallValue::from_u64(int, 7, 4, &Abi::lp64()).unwrap(),
        ];
        let r = t.call_func("printf", &args).unwrap();
        assert_eq!(r.to_u64(&Abi::lp64()), 4);
        assert_eq!(t.take_output(), "v=7\n");
        assert!(t.has_function("printf"));
        assert!(!t.has_function("nope"));
    }
}
