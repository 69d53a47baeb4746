//! The interning type arena.

use std::collections::HashMap;

use crate::{
    error::{TypeError, TypeResult},
    prim::Prim,
};

/// An index into a [`TypeTable`].
///
/// Type identity is structural for derived types (two `int *` requests
/// intern to the same id) and nominal for records and enums.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub(crate) u32);

/// An index identifying a struct or union definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordId(pub(crate) u32);

/// An index identifying an enum definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EnumId(pub(crate) u32);

impl TypeId {
    /// The raw arena index, for serialization (capture files). Only
    /// meaningful relative to the [`TypeTable`] that produced it.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`TypeId::raw`]. The caller is responsible
    /// for pairing it with the table (or [`TableSnapshot`]) it came
    /// from.
    pub fn from_raw(raw: u32) -> TypeId {
        TypeId(raw)
    }
}

impl RecordId {
    /// The raw arena index, for serialization.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`RecordId::raw`].
    pub fn from_raw(raw: u32) -> RecordId {
        RecordId(raw)
    }
}

impl EnumId {
    /// The raw arena index, for serialization.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`EnumId::raw`].
    pub fn from_raw(raw: u32) -> EnumId {
        EnumId(raw)
    }
}

/// The shape of a type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `void`.
    Void,
    /// A primitive arithmetic type.
    Prim(Prim),
    /// A pointer to another type.
    Pointer(TypeId),
    /// An array; `len == None` is an incomplete array (`T []`).
    Array {
        /// Element type.
        elem: TypeId,
        /// Element count, if known.
        len: Option<u64>,
    },
    /// A function type.
    Function {
        /// Return type.
        ret: TypeId,
        /// Parameter types.
        params: Vec<TypeId>,
        /// Whether the function is variadic (`...`).
        varargs: bool,
    },
    /// A struct, by definition id.
    Struct(RecordId),
    /// A union, by definition id.
    Union(RecordId),
    /// An enum, by definition id.
    Enum(EnumId),
}

/// A field of a struct or union.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name; anonymous bitfield padding has an empty name.
    pub name: String,
    /// Declared type of the field.
    pub ty: TypeId,
    /// Bitfield width in bits, or `None` for an ordinary field.
    pub bits: Option<u8>,
}

impl Field {
    /// Creates an ordinary (non-bitfield) field.
    pub fn new(name: impl Into<String>, ty: TypeId) -> Field {
        Field {
            name: name.into(),
            ty,
            bits: None,
        }
    }

    /// Creates a bitfield member of `width` bits.
    pub fn bitfield(name: impl Into<String>, ty: TypeId, width: u8) -> Field {
        Field {
            name: name.into(),
            ty,
            bits: Some(width),
        }
    }
}

/// A struct or union definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Tag name, if any (`struct symbol` → `"symbol"`).
    pub name: Option<String>,
    /// Ordered member list.
    pub fields: Vec<Field>,
    /// `true` for unions.
    pub is_union: bool,
    /// `false` while only forward-declared.
    pub complete: bool,
}

impl Record {
    /// Finds a field by name, returning its index.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// An enum definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumDef {
    /// Tag name, if any.
    pub name: Option<String>,
    /// `(name, value)` pairs in declaration order.
    pub enumerators: Vec<(String, i64)>,
}

/// The arena holding every type in a debugging session.
///
/// The paper notes that DUEL "contains its own type and value
/// representations"; the `TypeTable` is shared between the simulated
/// target, the mini-C compiler, and the DUEL evaluator so that a symbol's
/// type means the same thing everywhere.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    kinds: Vec<TypeKind>,
    records: Vec<Record>,
    enums: Vec<EnumDef>,
    interned: HashMap<TypeKind, TypeId>,
    typedefs: HashMap<String, TypeId>,
    struct_tags: HashMap<String, RecordId>,
    union_tags: HashMap<String, RecordId>,
    enum_tags: HashMap<String, EnumId>,
    /// The interned id of each primitive, indexed by `Prim as usize`:
    /// the evaluator asks for `int` once per produced value, and an
    /// array slot is cheaper than hashing a `TypeKind`.
    prims: [Option<TypeId>; Prim::COUNT],
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.interned.get(&kind) {
            return id;
        }
        let id = TypeId(self.kinds.len() as u32);
        if let TypeKind::Prim(p) = kind {
            self.prims[p as usize] = Some(id);
        }
        self.kinds.push(kind.clone());
        self.interned.insert(kind, id);
        id
    }

    /// Returns the id for `void`.
    pub fn void(&mut self) -> TypeId {
        self.intern(TypeKind::Void)
    }

    /// Returns the id for a primitive type.
    pub fn prim(&mut self, p: Prim) -> TypeId {
        match self.prims[p as usize] {
            Some(id) => id,
            None => self.intern(TypeKind::Prim(p)),
        }
    }

    /// Returns the id for a pointer to `to`.
    pub fn pointer(&mut self, to: TypeId) -> TypeId {
        self.intern(TypeKind::Pointer(to))
    }

    /// Returns the id for an array of `elem` with optional length.
    pub fn array(&mut self, elem: TypeId, len: Option<u64>) -> TypeId {
        self.intern(TypeKind::Array { elem, len })
    }

    /// Returns the id for a function type.
    pub fn function(&mut self, ret: TypeId, params: Vec<TypeId>, varargs: bool) -> TypeId {
        self.intern(TypeKind::Function {
            ret,
            params,
            varargs,
        })
    }

    /// Declares (or finds) a struct tag, initially incomplete.
    pub fn declare_struct(&mut self, tag: &str) -> (RecordId, TypeId) {
        if let Some(&rid) = self.struct_tags.get(tag) {
            return (rid, self.intern(TypeKind::Struct(rid)));
        }
        let rid = RecordId(self.records.len() as u32);
        self.records.push(Record {
            name: Some(tag.to_string()),
            fields: Vec::new(),
            is_union: false,
            complete: false,
        });
        self.struct_tags.insert(tag.to_string(), rid);
        (rid, self.intern(TypeKind::Struct(rid)))
    }

    /// Declares (or finds) a union tag, initially incomplete.
    pub fn declare_union(&mut self, tag: &str) -> (RecordId, TypeId) {
        if let Some(&rid) = self.union_tags.get(tag) {
            return (rid, self.intern(TypeKind::Union(rid)));
        }
        let rid = RecordId(self.records.len() as u32);
        self.records.push(Record {
            name: Some(tag.to_string()),
            fields: Vec::new(),
            is_union: true,
            complete: false,
        });
        self.union_tags.insert(tag.to_string(), rid);
        (rid, self.intern(TypeKind::Union(rid)))
    }

    /// Creates an anonymous record; `is_union` selects struct vs union.
    pub fn anonymous_record(&mut self, is_union: bool) -> (RecordId, TypeId) {
        let rid = RecordId(self.records.len() as u32);
        self.records.push(Record {
            name: None,
            fields: Vec::new(),
            is_union,
            complete: false,
        });
        let kind = if is_union {
            TypeKind::Union(rid)
        } else {
            TypeKind::Struct(rid)
        };
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        (rid, id)
    }

    /// Declares a struct tag and completes it with `fields` in one
    /// step — the programmatic-construction path used by synthetic
    /// targets that build their whole table in code rather than from
    /// parsed declarations.
    pub fn struct_type(&mut self, tag: &str, fields: Vec<Field>) -> (RecordId, TypeId) {
        let (rid, ty) = self.declare_struct(tag);
        self.define_record(rid, fields);
        (rid, ty)
    }

    /// Completes a record with its field list.
    pub fn define_record(&mut self, rid: RecordId, fields: Vec<Field>) {
        let r = &mut self.records[rid.0 as usize];
        r.fields = fields;
        r.complete = true;
    }

    /// Defines (or finds) an enum tag with the given enumerators.
    pub fn define_enum(
        &mut self,
        tag: Option<&str>,
        enumerators: Vec<(String, i64)>,
    ) -> (EnumId, TypeId) {
        if let Some(tag) = tag {
            if let Some(&eid) = self.enum_tags.get(tag) {
                self.enums[eid.0 as usize].enumerators = enumerators;
                return (eid, self.intern(TypeKind::Enum(eid)));
            }
        }
        let eid = EnumId(self.enums.len() as u32);
        self.enums.push(EnumDef {
            name: tag.map(|s| s.to_string()),
            enumerators,
        });
        if let Some(tag) = tag {
            self.enum_tags.insert(tag.to_string(), eid);
        }
        (eid, self.intern(TypeKind::Enum(eid)))
    }

    /// Registers `name` as a typedef for `ty`.
    pub fn define_typedef(&mut self, name: &str, ty: TypeId) {
        self.typedefs.insert(name.to_string(), ty);
    }

    /// Resolves a typedef name.
    pub fn typedef(&self, name: &str) -> Option<TypeId> {
        self.typedefs.get(name).copied()
    }

    /// Resolves a struct tag to its record id.
    pub fn struct_tag(&self, tag: &str) -> Option<RecordId> {
        self.struct_tags.get(tag).copied()
    }

    /// Resolves a union tag to its record id.
    pub fn union_tag(&self, tag: &str) -> Option<RecordId> {
        self.union_tags.get(tag).copied()
    }

    /// Resolves an enum tag.
    pub fn enum_tag(&self, tag: &str) -> Option<EnumId> {
        self.enum_tags.get(tag).copied()
    }

    /// Looks up an enumerator constant by name across all enums.
    pub fn enumerator(&self, name: &str) -> Option<(EnumId, i64)> {
        for (i, e) in self.enums.iter().enumerate() {
            for (n, v) in &e.enumerators {
                if n == name {
                    return Some((EnumId(i as u32), *v));
                }
            }
        }
        None
    }

    /// Returns the kind of a type id.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.0 as usize]
    }

    /// Returns a record definition.
    pub fn record(&self, rid: RecordId) -> &Record {
        &self.records[rid.0 as usize]
    }

    /// Returns an enum definition.
    pub fn enum_def(&self, eid: EnumId) -> &EnumDef {
        &self.enums[eid.0 as usize]
    }

    /// Peels typedefs — in this table typedefs resolve at creation, so
    /// this simply returns `id`; it exists for interface symmetry.
    pub fn canonical(&self, id: TypeId) -> TypeId {
        id
    }

    /// Returns the pointee of a pointer type, if `id` is a pointer.
    pub fn pointee(&self, id: TypeId) -> Option<TypeId> {
        match self.kind(id) {
            TypeKind::Pointer(p) => Some(*p),
            _ => None,
        }
    }

    /// Returns the element type of an array, if `id` is an array.
    pub fn element(&self, id: TypeId) -> Option<TypeId> {
        match self.kind(id) {
            TypeKind::Array { elem, .. } => Some(*elem),
            _ => None,
        }
    }

    /// Returns the record id if `id` is a struct or union.
    pub fn as_record(&self, id: TypeId) -> Option<(RecordId, bool)> {
        match self.kind(id) {
            TypeKind::Struct(r) => Some((*r, false)),
            TypeKind::Union(r) => Some((*r, true)),
            _ => None,
        }
    }

    /// Returns `true` if `id` is an integer type (including enums).
    pub fn is_integer(&self, id: TypeId) -> bool {
        match self.kind(id) {
            TypeKind::Prim(p) => p.is_integer(),
            TypeKind::Enum(_) => true,
            _ => false,
        }
    }

    /// Returns `true` if `id` is an arithmetic (integer or float) type.
    pub fn is_arithmetic(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Prim(_) | TypeKind::Enum(_))
    }

    /// Returns `true` if `id` is a pointer type.
    pub fn is_pointer(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Pointer(_))
    }

    /// Returns `true` if `id` is an array type.
    pub fn is_array(&self, id: TypeId) -> bool {
        matches!(self.kind(id), TypeKind::Array { .. })
    }

    /// Returns `true` if `id` is a scalar (arithmetic or pointer).
    pub fn is_scalar(&self, id: TypeId) -> bool {
        self.is_arithmetic(id) || self.is_pointer(id)
    }

    /// Finds a field in a record type, resolving the record.
    pub fn find_field(&self, id: TypeId, name: &str) -> TypeResult<(usize, &Field)> {
        let (rid, _) = self.as_record(id).ok_or_else(|| TypeError::NoField {
            record: self.display(id),
            field: name.to_string(),
        })?;
        let rec = self.record(rid);
        match rec.field_index(name) {
            Some(i) => Ok((i, &rec.fields[i])),
            None => Err(TypeError::NoField {
                record: self.display(id),
                field: name.to_string(),
            }),
        }
    }

    /// Number of types interned so far (diagnostics only).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Takes a deterministic, serializable image of the whole arena.
    ///
    /// Name-keyed maps are sorted so the same table always snapshots to
    /// the same bytes — capture files depend on this for reproducible
    /// diffs.
    pub fn snapshot(&self) -> TableSnapshot {
        fn sorted<V: Copy>(m: &HashMap<String, V>) -> Vec<(String, V)> {
            let mut v: Vec<(String, V)> = m.iter().map(|(k, &id)| (k.clone(), id)).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }
        TableSnapshot {
            kinds: self.kinds.clone(),
            records: self.records.clone(),
            enums: self.enums.clone(),
            typedefs: sorted(&self.typedefs),
            struct_tags: sorted(&self.struct_tags),
            union_tags: sorted(&self.union_tags),
            enum_tags: sorted(&self.enum_tags),
        }
    }

    /// Rebuilds a table from a snapshot, preserving every raw id.
    ///
    /// The intern map is reconstructed with first-occurrence-wins so
    /// kinds that were pushed without interning (anonymous records) do
    /// not steal the canonical id from an earlier identical entry.
    pub fn from_snapshot(snap: &TableSnapshot) -> TypeTable {
        let mut interned = HashMap::new();
        let mut prims = [None; Prim::COUNT];
        for (i, kind) in snap.kinds.iter().enumerate() {
            let id = *interned.entry(kind.clone()).or_insert(TypeId(i as u32));
            if let TypeKind::Prim(p) = kind {
                prims[*p as usize] = Some(id);
            }
        }
        TypeTable {
            kinds: snap.kinds.clone(),
            records: snap.records.clone(),
            enums: snap.enums.clone(),
            interned,
            typedefs: snap.typedefs.iter().cloned().collect(),
            struct_tags: snap.struct_tags.iter().cloned().collect(),
            union_tags: snap.union_tags.iter().cloned().collect(),
            enum_tags: snap.enum_tags.iter().cloned().collect(),
            prims,
        }
    }
}

/// A deterministic, serializable image of a [`TypeTable`].
///
/// Raw ids (`TypeId::raw` et al.) index directly into these vectors, so
/// a capture file that stores the snapshot plus raw ids round-trips
/// exactly via [`TypeTable::from_snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TableSnapshot {
    /// Every type kind, in arena (id) order.
    pub kinds: Vec<TypeKind>,
    /// Every struct/union definition, in arena order.
    pub records: Vec<Record>,
    /// Every enum definition, in arena order.
    pub enums: Vec<EnumDef>,
    /// Typedef name → type, sorted by name.
    pub typedefs: Vec<(String, TypeId)>,
    /// Struct tag → record, sorted by tag.
    pub struct_tags: Vec<(String, RecordId)>,
    /// Union tag → record, sorted by tag.
    pub union_tags: Vec<(String, RecordId)>,
    /// Enum tag → enum, sorted by tag.
    pub enum_tags: Vec<(String, EnumId)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_derived_types() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let p1 = tt.pointer(int);
        let p2 = tt.pointer(int);
        assert_eq!(p1, p2);
        let a1 = tt.array(int, Some(10));
        let a2 = tt.array(int, Some(10));
        let a3 = tt.array(int, Some(11));
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
    }

    #[test]
    fn struct_type_declares_and_completes_in_one_step() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let (rid, ty) = tt.struct_type("point", vec![Field::new("x", int), Field::new("y", int)]);
        assert!(tt.record(rid).complete);
        assert_eq!(tt.struct_tag("point"), Some(rid));
        assert_eq!(tt.record(rid).field_index("y"), Some(1));
        // Re-using the tag completes the same record id.
        let (rid2, ty2) = tt.struct_type("point", vec![Field::new("x", int)]);
        assert_eq!(rid, rid2);
        assert_eq!(ty, ty2);
    }

    #[test]
    fn snapshot_roundtrip_preserves_ids_and_interning() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let pint = tt.pointer(int);
        let (rid, sty) = tt.declare_struct("node");
        let pnode = tt.pointer(sty);
        tt.define_record(
            rid,
            vec![Field::new("value", int), Field::new("next", pnode)],
        );
        tt.define_typedef("node_t", sty);
        let (eid, ety) = tt.define_enum(Some("color"), vec![("RED".into(), 0), ("BLUE".into(), 1)]);

        let snap = tt.snapshot();
        let mut back = TypeTable::from_snapshot(&snap);

        // Raw ids survive the round trip.
        assert_eq!(back.len(), tt.len());
        assert_eq!(back.kind(sty), tt.kind(sty));
        assert_eq!(back.record(rid), tt.record(rid));
        assert_eq!(back.enum_def(eid), tt.enum_def(eid));
        assert_eq!(back.typedef("node_t"), Some(sty));
        assert_eq!(back.struct_tag("node"), Some(rid));
        assert_eq!(back.enum_tag("color"), Some(eid));
        assert_eq!(back.kind(ety), tt.kind(ety));

        // Re-interning is idempotent: asking for existing types does not
        // grow the restored table or mint new ids.
        let n = back.len();
        assert_eq!(back.prim(Prim::Int), int);
        assert_eq!(back.pointer(int), pint);
        assert_eq!(back.pointer(sty), pnode);
        assert_eq!(back.len(), n);

        // Snapshotting the restored table is byte-for-byte stable.
        assert_eq!(back.snapshot(), snap);
    }

    #[test]
    fn prim_array_ids_equal_interned_ids() {
        const ALL: [Prim; Prim::COUNT] = [
            Prim::Char,
            Prim::SChar,
            Prim::UChar,
            Prim::Short,
            Prim::UShort,
            Prim::Int,
            Prim::UInt,
            Prim::Long,
            Prim::ULong,
            Prim::LongLong,
            Prim::ULongLong,
            Prim::Float,
            Prim::Double,
        ];
        let mut tt = TypeTable::new();
        // Interleave primitives with derived types so ids are not
        // simply the primitives' ordinals.
        for (k, &p) in ALL.iter().enumerate().rev() {
            let id = tt.prim(p);
            if k % 3 == 0 {
                tt.pointer(id);
            }
        }
        let check = |tt: &mut TypeTable| {
            for &p in &ALL {
                let id = tt.prim(p);
                assert_eq!(tt.interned.get(&TypeKind::Prim(p)), Some(&id), "{p:?}");
                assert_eq!(tt.kind(id), &TypeKind::Prim(p));
            }
        };
        check(&mut tt);
        let n = tt.len();
        let mut back = TypeTable::from_snapshot(&tt.snapshot());
        check(&mut back);
        assert_eq!(
            back.len(),
            n,
            "restored primitives are found, not re-minted"
        );
        // A table that has not interned a primitive yet interns it on
        // first request, and the array answers the same id after that.
        let mut fresh = TypeTable::new();
        fresh.void();
        let d = fresh.prim(Prim::Double);
        assert_eq!(fresh.prim(Prim::Double), d);
        check(&mut fresh);
    }

    #[test]
    fn snapshot_handles_uninterned_anonymous_records() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        // anonymous_record pushes a kind without interning it.
        let (arid, aty) = tt.anonymous_record(false);
        tt.define_record(arid, vec![Field::new("x", int)]);
        let back = TypeTable::from_snapshot(&tt.snapshot());
        assert_eq!(back.kind(aty), tt.kind(aty));
        assert_eq!(back.record(arid), tt.record(arid));
        assert_eq!(back.snapshot(), tt.snapshot());
    }

    #[test]
    fn raw_id_roundtrip() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        assert_eq!(TypeId::from_raw(int.raw()), int);
        let (rid, _) = tt.declare_struct("s");
        assert_eq!(RecordId::from_raw(rid.raw()), rid);
        let (eid, _) = tt.define_enum(None, vec![("A".into(), 0)]);
        assert_eq!(EnumId::from_raw(eid.raw()), eid);
    }

    #[test]
    fn struct_declaration_and_definition() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let (rid, sty) = tt.declare_struct("symbol");
        assert!(!tt.record(rid).complete);
        // Self-referential: struct symbol *next.
        let pnext = tt.pointer(sty);
        tt.define_record(
            rid,
            vec![Field::new("scope", int), Field::new("next", pnext)],
        );
        assert!(tt.record(rid).complete);
        assert_eq!(tt.record(rid).field_index("next"), Some(1));
        // Re-declaring finds the same record.
        let (rid2, sty2) = tt.declare_struct("symbol");
        assert_eq!(rid, rid2);
        assert_eq!(sty, sty2);
    }

    #[test]
    fn enums_and_enumerators() {
        let mut tt = TypeTable::new();
        let (eid, ety) =
            tt.define_enum(Some("color"), vec![("RED".into(), 0), ("GREEN".into(), 5)]);
        assert!(tt.is_integer(ety));
        assert_eq!(tt.enumerator("GREEN"), Some((eid, 5)));
        assert_eq!(tt.enumerator("BLUE"), None);
        assert_eq!(tt.enum_tag("color"), Some(eid));
    }

    #[test]
    fn typedefs() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let p = tt.pointer(int);
        tt.define_typedef("intp", p);
        assert_eq!(tt.typedef("intp"), Some(p));
        assert_eq!(tt.typedef("nope"), None);
    }

    #[test]
    fn find_field_errors() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let (rid, sty) = tt.declare_struct("s");
        tt.define_record(rid, vec![Field::new("a", int)]);
        assert!(tt.find_field(sty, "a").is_ok());
        assert!(matches!(
            tt.find_field(sty, "b"),
            Err(TypeError::NoField { .. })
        ));
        assert!(tt.find_field(int, "a").is_err());
    }

    #[test]
    fn classification() {
        let mut tt = TypeTable::new();
        let int = tt.prim(Prim::Int);
        let d = tt.prim(Prim::Double);
        let p = tt.pointer(int);
        let a = tt.array(int, Some(4));
        assert!(tt.is_integer(int));
        assert!(!tt.is_integer(d));
        assert!(tt.is_arithmetic(d));
        assert!(tt.is_pointer(p));
        assert!(tt.is_array(a));
        assert!(tt.is_scalar(p));
        assert!(!tt.is_scalar(a));
    }
}
