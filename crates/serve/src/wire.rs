//! Field tables: one description per wire shape, both directions
//! derived from it.
//!
//! Every protocol shape is described once — a struct by a
//! [`wire_struct!`] table, a tagged enum by a [`wire_enum!`] table (one
//! row list per variant). Each row names the JSON key, the Rust field
//! and one rule:
//!
//! | row | encode | decode, key absent |
//! |---|---|---|
//! | `"key": field` | always written | error (required) |
//! | `"key": field dflt` | always written | `Default::default()` |
//! | `"key": field = expr` | always written | `expr` |
//! | `"key": field omit` | left out when empty (`false`, 0, empty, `None`) | `Default::default()` |
//! | `"key" => expr` | writes `expr` (derived value or constant) | ignored |
//! | `..field` | the field's own rows, inline | the field's own rows, same object |
//! | `field = expr` | not on the wire | `expr` |
//!
//! `via Codec` after the rule swaps the field type's own [`Wire`] form
//! for a hand-written [`Codec`]; a trailing `check f` runs `f` on every
//! decoded value. Encoding writes straight into the line buffer, with
//! no intermediate tree. Decoding reads the parsed [`Json`] tree
//! through one checked conversion per leaf type ([`Wire::take`]), so a
//! present but mistyped field is an error, never a silent default.

use std::fmt::Write as _;

use crate::json::{write_escaped, Json};
use crate::protocol::ProtocolError;

/// A protocol error with the given message.
pub(crate) fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

fn mistyped(key: &str, what: &str) -> ProtocolError {
    bad(format!("'{key}' must be {what}"))
}

/// A value with one JSON form.
pub(crate) trait Wire: Sized {
    /// Appends the JSON form to `out`.
    fn put(&self, out: &mut String);

    /// Reads the value of field `key` from its parsed form.
    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError>;

    /// Whether an `omit` row leaves this value off the wire.
    fn is_empty(&self) -> bool {
        false
    }
}

/// Integers ride JSON numbers, so they print as the `f64` they travel
/// as: exactly up to 2^53, rounded like any JSON reader would above.
fn put_uint(n: u64, out: &mut String) {
    if n <= 1 << 53 {
        let _ = write!(out, "{n}");
    } else {
        (n as f64).put(out);
    }
}

macro_rules! uint_wire {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut String) {
                put_uint(*self as u64, out);
            }

            fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| mistyped(key, concat!("a non-negative integer (", stringify!($t), ")")))
            }

            fn is_empty(&self) -> bool {
                *self == 0
            }
        }
    )+};
}

uint_wire!(u8, u32, u64, usize);

impl Wire for f64 {
    fn put(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            // Not representable in JSON; null is the least-bad lossy
            // choice, and decodes as an error rather than a number.
            out.push_str("null");
        }
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_f64().ok_or_else(|| mistyped(key, "a number"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(mistyped(key, "a boolean")),
        }
    }

    fn is_empty(&self) -> bool {
        !*self
    }
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        write_escaped(out, self);
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| mistyped(key, "a string"))
    }

    fn is_empty(&self) -> bool {
        String::is_empty(self)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        v.as_array()
            .ok_or_else(|| mistyped(key, "an array"))?
            .iter()
            .map(|item| T::take(item, key))
            .collect()
    }

    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

/// Present means `Some`: `None` is only ever left off the wire.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        T::take(v, key).map(Some)
    }

    fn is_empty(&self) -> bool {
        self.is_none()
    }
}

/// String-valued label pairs, as an object keyed by label name.
impl Wire for Vec<(String, String)> {
    fn put(&self, out: &mut String) {
        let mut o = Obj::open(out);
        for (k, v) in self {
            o.put(k, v);
        }
        o.close();
    }

    fn take(v: &Json, key: &str) -> Result<Self, ProtocolError> {
        let Json::Obj(pairs) = v else {
            return Err(mistyped(key, "an object"));
        };
        pairs
            .iter()
            .map(|(k, item)| Ok((k.clone(), String::take(item, key)?)))
            .collect()
    }

    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

/// One JSON object being written: `{`, comma-separated `"key":value`
/// pairs, `}`.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Writes `"key":` and returns the buffer the value goes into.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes one `"key":value` pair in `value`'s own form.
    pub(crate) fn put<T: Wire>(&mut self, key: &str, value: &T) {
        value.put(self.key(key));
    }

    /// Writes one `"key":value` pair through codec `C`.
    pub(crate) fn field<C: Codec<T>, T>(&mut self, key: &str, value: &T) {
        C::put(value, self.key(key));
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// A field form other than the field type's own [`Wire`] form (`via
/// Codec` in a table row).
pub(crate) trait Codec<T> {
    /// Appends `value`'s form to `out`.
    fn put(value: &T, out: &mut String);
    /// Reads field `key` from its parsed form.
    fn take(v: &Json, key: &str) -> Result<T, ProtocolError>;
    /// Whether an `omit` row leaves `value` off the wire.
    fn is_empty(value: &T) -> bool;
}

/// The field type's own [`Wire`] form: the codec of every row without
/// `via`.
pub(crate) struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn put(value: &T, out: &mut String) {
        value.put(out);
    }

    fn take(v: &Json, key: &str) -> Result<T, ProtocolError> {
        T::take(v, key)
    }

    fn is_empty(value: &T) -> bool {
        value.is_empty()
    }
}

/// Reads optional field `key` of object `v` through codec `C`.
pub(crate) fn optional<C: Codec<T>, T>(v: &Json, key: &str) -> Result<Option<T>, ProtocolError> {
    v.get(key).map(|item| C::take(item, key)).transpose()
}

/// Reads required field `key` of object `v` through codec `C`.
pub(crate) fn required<C: Codec<T>, T>(v: &Json, key: &str) -> Result<T, ProtocolError> {
    optional::<C, T>(v, key)?.ok_or_else(|| bad(format!("missing required field '{key}'")))
}

/// Whether the line-kind flag `key` (`done`, `stream`) is set.
pub(crate) fn flag(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

/// A shape written as the fields of a JSON object: nested as an
/// object of its own, or inlined (`..field`) into an enclosing one.
pub(crate) trait Fields: Sized {
    /// Writes this value's fields into `o`.
    fn put_fields(&self, o: &mut Obj<'_>);
    /// Reads this value's fields from object `v`.
    fn take_fields(v: &Json) -> Result<Self, ProtocolError>;
}

impl<T: Fields> Fields for Box<T> {
    fn put_fields(&self, o: &mut Obj<'_>) {
        T::put_fields(self, o);
    }

    fn take_fields(v: &Json) -> Result<Self, ProtocolError> {
        T::take_fields(v).map(Box::new)
    }
}

/// A tagged enum: a tag row naming the variant, then the variant's own
/// rows ([`wire_enum!`]).
pub(crate) trait Tagged: Sized {
    /// Writes the tag row, then `meta`'s rows, then the variant's rows.
    fn put_tagged(&self, o: &mut Obj<'_>, meta: impl FnOnce(&mut Obj<'_>));
    /// Reads the variant the tag row names.
    fn take_tagged(v: &Json) -> Result<Self, ProtocolError>;
}

/// Gives [`Fields`] types their nested form: a JSON object.
macro_rules! object_wire {
    ($($t:ty),+) => {$(
        impl $crate::wire::Wire for $t {
            fn put(&self, out: &mut String) {
                let mut o = $crate::wire::Obj::open(out);
                $crate::wire::Fields::put_fields(self, &mut o);
                o.close();
            }

            fn take(
                v: &$crate::json::Json,
                key: &str,
            ) -> Result<Self, $crate::protocol::ProtocolError> {
                if !matches!(v, $crate::json::Json::Obj(_)) {
                    return Err($crate::wire::bad(format!("'{key}' must be an object")));
                }
                $crate::wire::Fields::take_fields(v)
            }
        }
    )+};
}

/// The codec of a row: its `via` type, else [`Plain`].
macro_rules! wire_codec {
    () => {
        $crate::wire::Plain
    };
    ($c:ty) => {
        $c
    };
}

/// Encode half of a row list: one statement per row. `($($at)*)` is
/// how a field is reached: `this .` for a struct, `*` for a binding of
/// a matched enum variant.
macro_rules! wire_put {
    ($o:ident ($($at:tt)*)) => {};
    ($o:ident ($($at:tt)*) .. $f:ident $(, $($rest:tt)*)?) => {
        $crate::wire::Fields::put_fields(&$($at)* $f, $o);
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
    // A literal constant's JSON text is its Rust text ("ok", true).
    ($o:ident ($($at:tt)*) $key:literal => $lit:literal $(, $($rest:tt)*)?) => {
        $o.key($key).push_str(stringify!($lit));
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
    ($o:ident ($($at:tt)*) $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $o.put($key, &$e);
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
    ($o:ident ($($at:tt)*) $key:literal : $f:ident omit $(via $c:ty)? $(, $($rest:tt)*)?) => {
        if !<$crate::wire::wire_codec!($($c)?) as $crate::wire::Codec<_>>::is_empty(&$($at)* $f) {
            $o.field::<$crate::wire::wire_codec!($($c)?), _>($key, &$($at)* $f);
        }
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
    ($o:ident ($($at:tt)*) $key:literal : $f:ident $(dflt)? $(via $c:ty)? $(= $d:expr)? $(, $($rest:tt)*)?) => {
        $o.field::<$crate::wire::wire_codec!($($c)?), _>($key, &$($at)* $f);
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
    ($o:ident ($($at:tt)*) $f:ident = $d:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_put!($o ($($at)*) $($($rest)*)?);
    };
}

/// Decode half of a row list: one `let` per field, then the value —
/// `(struct Ty)` builds `Ty { fields }`, `(ctor ...)` evaluates the
/// given constructor.
macro_rules! wire_take {
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] (struct $ty:ident);) => {{
        $($lets)*
        $ty { $($ids),* }
    }};
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] (ctor $($ctor:tt)*);) => {{
        $($lets)*
        $($ctor)*
    }};
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt; .. $f:ident $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v
            [$($lets)* let $f = $crate::wire::Fields::take_fields($v)?;]
            [$($ids)* $f] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt; $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v [$($lets)*] [$($ids)*] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt;
        $key:literal : $f:ident $(via $c:ty)? = $d:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v
            [$($lets)* let $f = $crate::wire::optional::<$crate::wire::wire_codec!($($c)?), _>($v, $key)?
                .unwrap_or_else(|| $d);]
            [$($ids)* $f] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt;
        $key:literal : $f:ident dflt $(via $c:ty)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v
            [$($lets)* let $f = $crate::wire::optional::<$crate::wire::wire_codec!($($c)?), _>($v, $key)?
                .unwrap_or_default();]
            [$($ids)* $f] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt;
        $key:literal : $f:ident omit $(via $c:ty)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v
            [$($lets)* let $f = $crate::wire::optional::<$crate::wire::wire_codec!($($c)?), _>($v, $key)?
                .unwrap_or_default();]
            [$($ids)* $f] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt;
        $key:literal : $f:ident $(via $c:ty)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v
            [$($lets)* let $f = $crate::wire::required::<$crate::wire::wire_codec!($($c)?), _>($v, $key)?;]
            [$($ids)* $f] $mode; $($($rest)*)?)
    };
    ($v:ident [$($lets:tt)*] [$($ids:ident)*] $mode:tt; $f:ident = $d:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!($v [$($lets)* let $f = $d;] [$($ids)* $f] $mode; $($($rest)*)?)
    };
}

/// Describes a struct's wire shape: `wire_struct! { Ty as this { rows }
/// [check f] }`. `this` names the value inside `=>` rows. Implements
/// [`Fields`] and, through it, [`Wire`] as a JSON object.
macro_rules! wire_struct {
    ($ty:ident as $this:ident { $($rows:tt)* } $(check $check:path)?) => {
        impl $crate::wire::Fields for $ty {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                let $this = self;
                $crate::wire::wire_put!(o ($this .) $($rows)*);
            }

            fn take_fields(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::protocol::ProtocolError> {
                let value = $crate::wire::wire_take!(v [] [] (struct $ty); $($rows)*);
                $(let mut value = value; $check(&mut value)?;)?
                Ok(value)
            }
        }
        $crate::wire::object_wire!($ty);
    };
}

/// Describes a tagged enum's wire shape: the tag key, then per variant
/// its binding pattern, tag value, optional line-kind flag (`if
/// "done"`: chosen when that key is `true`; list flagged variants
/// before their unflagged sibling), rows and optional `check`.
/// Implements [`Tagged`] and [`Fields`]; `what` names the tag in
/// errors.
macro_rules! wire_enum {
    ($ty:ident, $tag:literal, $what:literal {
        $($var:ident { $($bind:tt)* } = $name:literal $(if $flag:literal)? { $($rows:tt)* }
            $(check $check:path)?),* $(,)?
    }) => {
        impl $crate::wire::Tagged for $ty {
            fn put_tagged(
                &self,
                o: &mut $crate::wire::Obj<'_>,
                meta: impl FnOnce(&mut $crate::wire::Obj<'_>),
            ) {
                match self {
                    $($ty::$var { $($bind)* } => {
                        o.key($tag).push_str(concat!("\"", $name, "\""));
                        meta(o);
                        $crate::wire::wire_put!(o (*) $($rows)*);
                    })*
                    #[allow(unreachable_patterns)]
                    _ => {}
                }
            }

            fn take_tagged(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::protocol::ProtocolError> {
                let kind = v
                    .get($tag)
                    .and_then($crate::json::Json::as_str)
                    .ok_or_else(|| $crate::wire::bad(concat!("needs a string '", $tag, "'")))?;
                match kind {
                    $($name $(if $crate::wire::flag(v, $flag))? => {
                        let value = $crate::wire::wire_take!(v [] []
                            (ctor $ty::$var { $($bind)* }); $($rows)*);
                        $(let mut value = value; $check(&mut value)?;)?
                        Ok(value)
                    })*
                    other => Err($crate::wire::bad(format!(concat!("unknown ", $what, " '{}'"), other))),
                }
            }
        }

        impl $crate::wire::Fields for $ty {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                $crate::wire::Tagged::put_tagged(self, o, |_| {});
            }

            fn take_fields(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::protocol::ProtocolError> {
                $crate::wire::Tagged::take_tagged(v)
            }
        }
    };
}

pub(crate) use {object_wire, wire_codec, wire_enum, wire_put, wire_struct, wire_take};

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: Wire>(value: &T) -> String {
        let mut out = String::new();
        value.put(&mut out);
        out
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{0001}f/🦀".to_owned();
        let line = encoded(&original);
        assert_eq!(line, r#""a\"b\\c\nd\te\u0001f/🦀""#);
        let back = String::take(&Json::parse(&line).unwrap(), "s").unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            700.0,
            1e-300,
            f64::MAX,
            -0.0,
            123.456_789_012_345_67,
        ] {
            let line = encoded(&x);
            let back = f64::take(&Json::parse(&line).unwrap(), "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} re-parsed as {back}");
        }
        // Non-finite floats have no JSON form: they write null, which
        // no number field accepts.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(encoded(&x), "null");
        }
        assert!(f64::take(&Json::Null, "x").is_err());
    }

    #[test]
    fn integers_print_as_the_f64_they_travel_as() {
        assert_eq!(encoded(&576usize), "576");
        assert_eq!(encoded(&(1u64 << 53)), "9007199254740992");
        // Every magnitude, at and around each power of two: the same
        // text as the `f64` form, which rounds above 2^53.
        for shift in 0..64 {
            for n in [(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1] {
                assert_eq!(encoded(&n), format!("{}", n as f64), "{n}");
            }
        }
        assert_eq!(encoded(&u64::MAX), format!("{}", u64::MAX as f64));
    }

    #[test]
    fn leaf_conversions_are_checked() {
        let parse = |s: &str| Json::parse(s).unwrap();
        assert_eq!(u8::take(&parse("255"), "n"), Ok(255));
        for bad in ["256", "-1", "1.5", "1e300", "\"7\"", "true"] {
            assert!(u8::take(&parse(bad), "n").is_err(), "{bad}");
        }
        assert!(u32::take(&parse("4294967296"), "n").is_err());
        assert!(bool::take(&parse("1"), "b").is_err());
        assert!(String::take(&parse("1"), "s").is_err());
        assert!(Vec::<u64>::take(&parse("1"), "v").is_err());
        assert!(Vec::<u64>::take(&parse("[1,\"x\"]"), "v").is_err());
    }
}
