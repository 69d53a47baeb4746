//! The C primitive (arithmetic) types.

use crate::abi::Abi;

/// A C primitive arithmetic type.
///
/// `Char` is the "plain" `char` type whose signedness is ABI-dependent;
/// `SChar`/`UChar` are explicitly `signed char` / `unsigned char`. The
/// widths of `Long`/`ULong` depend on the [`Abi`] (4 bytes under ILP32,
/// 8 under LP64).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prim {
    /// Plain `char` (ABI-dependent signedness).
    Char,
    /// `signed char`.
    SChar,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long`.
    Long,
    /// `unsigned long`.
    ULong,
    /// `long long` (always 8 bytes).
    LongLong,
    /// `unsigned long long` (always 8 bytes).
    ULongLong,
    /// `float`.
    Float,
    /// `double`.
    Double,
}

impl Prim {
    /// How many primitives there are (`Prim as usize` is below this).
    pub const COUNT: usize = Prim::Double as usize + 1;

    /// Returns the size of the type in bytes under `abi`.
    pub fn size(self, abi: &Abi) -> u64 {
        match self {
            Prim::Char | Prim::SChar | Prim::UChar => 1,
            Prim::Short | Prim::UShort => 2,
            Prim::Int | Prim::UInt => 4,
            Prim::Long | Prim::ULong => abi.long_bytes,
            Prim::LongLong | Prim::ULongLong => 8,
            Prim::Float => 4,
            Prim::Double => 8,
        }
    }

    /// Returns the alignment of the type in bytes under `abi`.
    pub fn align(self, abi: &Abi) -> u64 {
        self.size(abi).min(abi.max_align)
    }

    /// Returns `true` for the integer types (including `char`).
    pub fn is_integer(self) -> bool {
        !self.is_float()
    }

    /// Returns `true` for `float` and `double`.
    pub fn is_float(self) -> bool {
        matches!(self, Prim::Float | Prim::Double)
    }

    /// Returns `true` if values of this type are signed under `abi`.
    pub fn is_signed(self, abi: &Abi) -> bool {
        match self {
            Prim::Char => abi.char_signed,
            Prim::SChar | Prim::Short | Prim::Int | Prim::Long | Prim::LongLong => true,
            Prim::UChar | Prim::UShort | Prim::UInt | Prim::ULong | Prim::ULongLong => false,
            Prim::Float | Prim::Double => true,
        }
    }

    /// Returns the unsigned counterpart of an integer type.
    ///
    /// Float types are returned unchanged.
    pub fn to_unsigned(self) -> Prim {
        match self {
            Prim::Char | Prim::SChar => Prim::UChar,
            Prim::Short => Prim::UShort,
            Prim::Int => Prim::UInt,
            Prim::Long => Prim::ULong,
            Prim::LongLong => Prim::ULongLong,
            other => other,
        }
    }

    /// Renders the canonical C spelling, e.g. `"unsigned long"`.
    pub fn c_name(self) -> &'static str {
        match self {
            Prim::Char => "char",
            Prim::SChar => "signed char",
            Prim::UChar => "unsigned char",
            Prim::Short => "short",
            Prim::UShort => "unsigned short",
            Prim::Int => "int",
            Prim::UInt => "unsigned int",
            Prim::Long => "long",
            Prim::ULong => "unsigned long",
            Prim::LongLong => "long long",
            Prim::ULongLong => "unsigned long long",
            Prim::Float => "float",
            Prim::Double => "double",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_ilp32() {
        let abi = Abi::ilp32();
        assert_eq!(Prim::Char.size(&abi), 1);
        assert_eq!(Prim::Short.size(&abi), 2);
        assert_eq!(Prim::Int.size(&abi), 4);
        assert_eq!(Prim::Long.size(&abi), 4);
        assert_eq!(Prim::LongLong.size(&abi), 8);
        assert_eq!(Prim::Double.size(&abi), 8);
    }

    #[test]
    fn sizes_lp64() {
        let abi = Abi::lp64();
        assert_eq!(Prim::Long.size(&abi), 8);
        assert_eq!(Prim::ULong.size(&abi), 8);
        assert_eq!(Prim::Int.size(&abi), 4);
    }

    #[test]
    fn signedness() {
        let abi = Abi::lp64();
        assert!(Prim::Char.is_signed(&abi));
        assert!(!Prim::UChar.is_signed(&abi));
        assert!(Prim::Int.is_signed(&abi));
        assert!(!Prim::ULongLong.is_signed(&abi));
        let mut u = Abi::lp64();
        u.char_signed = false;
        assert!(!Prim::Char.is_signed(&u));
    }

    #[test]
    fn unsigned_counterparts() {
        assert_eq!(Prim::Int.to_unsigned(), Prim::UInt);
        assert_eq!(Prim::Char.to_unsigned(), Prim::UChar);
        assert_eq!(Prim::Double.to_unsigned(), Prim::Double);
    }

    #[test]
    fn c_names() {
        assert_eq!(Prim::ULong.c_name(), "unsigned long");
        assert_eq!(Prim::SChar.c_name(), "signed char");
    }
}
