//! Fundamental identifier and value types shared across the simulator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a table in the catalog.
///
/// Table ids are dense (assigned sequentially by the [`crate::catalog::CatalogBuilder`]),
/// so they can be used to index per-table arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Identifier of a column.  Column ids are global (not per-table) and dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Logical data type of a column.
///
/// Only the storage width and comparison semantics matter to the cost model;
/// we keep the set small but sufficient for the TPC-style benchmark schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 8-byte integer.
    Integer,
    /// 8-byte floating point.
    Float,
    /// Fixed-point decimal (stored as 8 bytes in the simulator).
    Decimal,
    /// Variable-length character data.
    Text,
    /// Date / timestamp (stored as 8 bytes).
    Date,
}

impl DataType {
    /// Width in bytes used for row-size and index-size estimation.
    pub fn width(self) -> f64 {
        match self {
            DataType::Integer | DataType::Float | DataType::Decimal | DataType::Date => 8.0,
            DataType::Text => 24.0,
        }
    }
}

/// A literal value appearing in a SQL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// String literal (also used for dates).
    Str(String),
    /// NULL literal.
    Null,
}

impl Value {
    /// Best-effort numeric interpretation of the value, used by the
    /// selectivity estimator for range predicates.
    ///
    /// Strings are interpreted by hashing their first characters into a stable
    /// position in `[0, 1e9)` so that ranges over date-like strings still get
    /// a deterministic (if crude) selectivity.
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(s) => Some(string_to_numeric(s)),
            Value::Null => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// Map a string to a stable numeric position.
///
/// The mapping is monotone in the lexicographic order of the string (within a
/// common format), which is exactly what a range-selectivity estimator needs:
/// if `a < b` lexicographically then `string_to_numeric(a) <= string_to_numeric(b)`.
///
/// Strings that start with a digit (dates, timestamps, zero-padded keys) are
/// mapped by concatenating their first nine digits, which makes interpolation
/// over date ranges behave almost linearly.  Other strings fall back to a
/// byte-weighted positional encoding.
pub fn string_to_numeric(s: &str) -> f64 {
    if s.as_bytes().first().is_some_and(|b| b.is_ascii_digit()) {
        let mut acc = 0.0f64;
        let mut digits = 0usize;
        for byte in s.bytes() {
            if byte.is_ascii_digit() {
                acc = acc * 10.0 + (byte - b'0') as f64;
                digits += 1;
                if digits == 9 {
                    break;
                }
            }
        }
        // Left-justify so that short numeric prefixes compare correctly with
        // longer ones ("1995" vs "1995-05-12").
        while digits < 9 {
            acc *= 10.0;
            digits += 1;
        }
        return acc;
    }
    let mut acc = 0.0f64;
    let mut scale = 1.0f64;
    for byte in s.bytes().take(8) {
        scale /= 256.0;
        acc += byte as f64 * scale;
    }
    acc * 1e9
}

/// Number of bytes in a page of storage.  All I/O costs are expressed in
/// page units.
pub const PAGE_SIZE: f64 = 8192.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_widths_positive() {
        for dt in [
            DataType::Integer,
            DataType::Float,
            DataType::Decimal,
            DataType::Text,
            DataType::Date,
        ] {
            assert!(dt.width() > 0.0);
        }
    }

    #[test]
    fn value_numeric_conversions() {
        assert_eq!(Value::Int(42).as_numeric(), Some(42.0));
        assert_eq!(Value::Float(1.5).as_numeric(), Some(1.5));
        assert_eq!(Value::Null.as_numeric(), None);
        assert!(Value::Str("abc".into()).as_numeric().is_some());
    }

    #[test]
    fn string_to_numeric_is_monotone() {
        let a = string_to_numeric("1995-05-12");
        let b = string_to_numeric("2006-07-10");
        assert!(a < b, "{a} vs {b}");
        let c = string_to_numeric("aaa");
        let d = string_to_numeric("aab");
        assert!(c < d);
    }

    #[test]
    fn string_to_numeric_bounded() {
        for s in ["", "z", "zzzzzzzzzzzz", "1812-08-05-03.21.02"] {
            let v = string_to_numeric(s);
            assert!((0.0..=1e9).contains(&v));
        }
    }

    #[test]
    fn value_display_roundtrip_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TableId(1) < TableId(2));
        assert!(ColumnId(3) > ColumnId(1));
        assert_eq!(TableId(5).to_string(), "T5");
        assert_eq!(ColumnId(5).to_string(), "C5");
    }
}
