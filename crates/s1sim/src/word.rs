//! The machine word: the S-1 tag architecture.
//!
//! §3: "Virtual addresses are 31 bits plus a five-bit tag.  Nine of the 32
//! possible tags have special meaning to the architecture …; the others
//! may be used freely as user data-type tags.  (S-1 LISP of course uses
//! most of these tags to indicate LISP data types.)"
//!
//! A word is either **raw machine data** (an untagged integer or
//! floating-point value — §6.2's "raw machine number") or a **tagged
//! pointer/immediate**.  The distinction between the two is the heart of
//! representation analysis.  The payload is widened from 31 to 64 bits so
//! the dialect's fixnums match the reference interpreter; the tag
//! mechanics are unchanged.

use std::fmt;

/// The 5-bit data-type tag of a pointer word.
///
/// Numbering is arbitrary but fixed; `DTP-GC` is reserved for the garbage
/// collector's scratch/forwarding marker, as seen in Table 4's
/// `(POINTER *:DTP-GC 12)` frame initialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tag {
    /// The empty list (also boolean false).
    Nil,
    /// The canonical truth object.
    T,
    /// Immediate fixnum (payload is the value).
    Fixnum,
    /// Immediate character (payload is the code point).
    Char,
    /// Pointer to a one-word single flonum object (`*:DTP-SINGLE-FLONUM`).
    SingleFlonum,
    /// Pointer to a two-word cons cell.
    Cons,
    /// Immediate symbol (payload indexes the program's symbol table).
    Symbol,
    /// Immediate string (payload indexes the program's string table).
    String,
    /// Global function object (payload indexes the function table).
    Function,
    /// Pointer to a closure object: `[len, fnid, cell…]`.
    Closure,
    /// Pointer to a one-word value cell (heap-allocated variable).
    Cell,
    /// Garbage-collector scratch / free-space marker.
    Gc,
}

/// Where a pointer's address points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The heap (a "safe" pointer, §6.3).
    Heap,
    /// The stack (an "unsafe" pdl pointer that may need certification).
    Stack,
}

/// Address space partitioning: addresses at or above this value are stack
/// addresses (the pdl-pointer test of §6.3 — "determining at run time
/// that the pointer … does not point into the stack").
pub const STACK_BASE: u64 = 1 << 40;

/// A machine word.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Word {
    /// Raw machine integer (§6.2's raw representation of a fixnum, also
    /// used for untagged scratch data).
    Raw(i64),
    /// Raw machine floating-point number (SWFLO in a register).
    F(f64),
    /// A tagged word: immediate or pointer, depending on the tag.
    Ptr(Tag, u64),
}

impl Word {
    /// The canonical nil word.
    pub const NIL: Word = Word::Ptr(Tag::Nil, 0);
    /// The canonical truth word.
    pub const T: Word = Word::Ptr(Tag::T, 0);

    /// An immediate fixnum in pointer format.
    pub fn fixnum(n: i64) -> Word {
        Word::Ptr(Tag::Fixnum, n as u64)
    }

    /// Lisp truth of a pointer-format word.
    pub fn is_true(self) -> bool {
        !matches!(self, Word::Ptr(Tag::Nil, _))
    }

    /// The fixnum value, if this word is an immediate fixnum.
    pub fn as_fixnum(self) -> Option<i64> {
        match self {
            Word::Ptr(Tag::Fixnum, n) => Some(n as i64),
            _ => None,
        }
    }

    /// The raw integer, if this word is raw.
    pub fn as_raw(self) -> Option<i64> {
        match self {
            Word::Raw(n) => Some(n),
            _ => None,
        }
    }

    /// The integer a fixnum or a raw word holds: the operand the
    /// machine's integer instructions accept.
    #[inline]
    pub fn as_integer(self) -> Option<i64> {
        match self {
            Word::Raw(n) => Some(n),
            Word::Ptr(Tag::Fixnum, n) => Some(n as i64),
            _ => None,
        }
    }

    /// The raw float, if this word is one.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Word::F(x) => Some(x),
            _ => None,
        }
    }

    /// The tag of a tagged word.
    pub fn tag(self) -> Option<Tag> {
        match self {
            Word::Ptr(t, _) => Some(t),
            _ => None,
        }
    }

    /// Whether this tagged word is a pointer into memory (rather than an
    /// immediate), and to which region.
    pub fn region(self) -> Option<Region> {
        match self {
            Word::Ptr(t, addr) if t.is_reference() => Some(if addr >= STACK_BASE {
                Region::Stack
            } else {
                Region::Heap
            }),
            _ => None,
        }
    }

    /// §6.3's safety test: "such pointers never point into the stack."
    /// Raw words and immediates are trivially safe.
    pub fn is_safe(self) -> bool {
        self.region() != Some(Region::Stack)
    }
}

impl Tag {
    /// Whether words with this tag carry a memory address (as opposed to
    /// an immediate payload).
    pub fn is_reference(self) -> bool {
        matches!(
            self,
            Tag::SingleFlonum | Tag::Cons | Tag::Closure | Tag::Cell
        )
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Raw(n) => write!(f, "#raw:{n}"),
            Word::F(x) => write!(f, "#flo:{x}"),
            Word::Ptr(Tag::Nil, _) => write!(f, "()"),
            Word::Ptr(Tag::T, _) => write!(f, "t"),
            Word::Ptr(Tag::Fixnum, n) => write!(f, "{}", *n as i64),
            Word::Ptr(t, a) => write!(f, "#<{t:?} @{a:#x}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixnum_round_trip() {
        assert_eq!(Word::fixnum(-5).as_fixnum(), Some(-5));
        assert_eq!(Word::fixnum(i64::MAX).as_fixnum(), Some(i64::MAX));
        assert_eq!(Word::Raw(3).as_fixnum(), None);
    }

    #[test]
    fn truthiness() {
        assert!(!Word::NIL.is_true());
        assert!(Word::T.is_true());
        assert!(Word::fixnum(0).is_true());
        assert!(Word::Raw(0).is_true()); // raw words are not nil
    }

    #[test]
    fn regions_and_safety() {
        let heap_ptr = Word::Ptr(Tag::Cons, 100);
        let stack_ptr = Word::Ptr(Tag::SingleFlonum, STACK_BASE + 4);
        assert_eq!(heap_ptr.region(), Some(Region::Heap));
        assert_eq!(stack_ptr.region(), Some(Region::Stack));
        assert!(heap_ptr.is_safe());
        assert!(!stack_ptr.is_safe());
        // Immediates are safe and regionless.
        assert_eq!(Word::fixnum(7).region(), None);
        assert!(Word::fixnum(7).is_safe());
        assert!(Word::F(1.0).is_safe());
    }

    #[test]
    fn reference_tags() {
        assert!(Tag::Cons.is_reference());
        assert!(Tag::SingleFlonum.is_reference());
        assert!(!Tag::Fixnum.is_reference());
        assert!(!Tag::Symbol.is_reference());
    }
}
