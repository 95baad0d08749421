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
//! no intermediate tree. Decoding pulls from the line's bytes with a
//! [`Reader`], in one pass and with no tree either: each object's keys
//! are matched, as borrowed slices, against its rows (an inlined
//! shape's rows and the enclosing shapes' rows share the object through
//! [`Keys`]), and each leaf converts straight into its field with one
//! checked conversion ([`Wire::take`]), so a present but mistyped field
//! is an error, never a silent default. Keys may come in any order,
//! unknown keys are skipped (still validated), and when a key repeats
//! the last occurrence wins.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::json::{exact_u64, write_escaped, JsonError, Reader};
use crate::protocol::ProtocolError;

/// A protocol error with the given message.
pub(crate) fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

fn mistyped(key: &str, what: &str) -> ProtocolError {
    bad(format!("'{key}' must be {what}"))
}

/// The error of a required row whose key never came.
pub(crate) fn missing(key: &str) -> ProtocolError {
    bad(format!("missing required field '{key}'"))
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        bad(e.to_string())
    }
}

/// The rows of the shapes enclosing the one being read, offered every
/// key that shape does not own: returns whether they took the key (and
/// read its value).
pub(crate) type Keys<'k, 'a> = &'k mut dyn FnMut(&str, &mut Reader<'a>) -> Decoded<bool>;

/// A decoded value, or why it is not one.
pub(crate) type Decoded<T> = Result<T, ProtocolError>;

/// Reads a row's value with `take` into its slot, which holds the
/// key's last occurrence so far: its value, or why it failed to
/// convert. A value that fails is still skipped, and so validated; its
/// error waits in the slot until the object is done, so a later
/// occurrence of the key replaces it.
pub(crate) fn read<'a, T>(
    r: &mut Reader<'a>,
    slot: &mut Option<Decoded<T>>,
    take: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<bool> {
    let mark = r.mark();
    let value = take(r);
    if value.is_err() {
        r.reset(mark);
        r.skip()?;
    }
    *slot = Some(value);
    Ok(true)
}

/// Reads the open object through its `}`, offering each key to `keys`
/// and skipping the values nobody takes.
pub(crate) fn each_key<'a>(
    r: &mut Reader<'a>,
    mut keys: impl FnMut(&str, &mut Reader<'a>) -> Decoded<bool>,
) -> Decoded<()> {
    while let Some(key) = r.next_key()? {
        if !keys(&key, r)? {
            r.skip()?;
        }
    }
    Ok(())
}

/// Opens the object or array (`b` is `{` or `[`) that field `key` must
/// hold, else fails naming `what` it must be.
pub(crate) fn open(r: &mut Reader<'_>, b: u8, key: &str, what: &str) -> Decoded<()> {
    r.open(b).map_err(|_| mistyped(key, what))
}

/// A value with one JSON form.
pub(crate) trait Wire: Sized {
    /// Appends the JSON form to `out`.
    fn put(&self, out: &mut String);

    /// Reads field `key`'s value, the next one in `r`.
    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self>;

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

            fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
                r.number()
                    .ok()
                    .and_then(exact_u64)
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

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        r.number().map_err(|_| mistyped(key, "a number"))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        match r.skip() {
            Ok(text) if text == "true" || text == "false" => Ok(text == "true"),
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

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        let text = r.string().map_err(|_| mistyped(key, "a string"))?;
        Ok(text.into_owned())
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

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        open(r, b'[', key, "an array")?;
        let mut items = Vec::new();
        while r.more(b']')? {
            items.push(T::take(r, key)?);
        }
        Ok(items)
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

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        T::take(r, key).map(Some)
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

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        open(r, b'{', key, "an object")?;
        let mut pairs = Vec::new();
        while let Some(label) = r.next_key()? {
            pairs.push((label.into_owned(), String::take(r, key)?));
        }
        Ok(pairs)
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
    /// Reads field `key`'s value, the next one in `r`.
    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<T>;
    /// Whether an `omit` row leaves `value` off the wire.
    fn is_empty(_: &T) -> bool {
        false
    }
}

/// The field type's own [`Wire`] form: the codec of every row without
/// `via`.
pub(crate) struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn put(value: &T, out: &mut String) {
        value.put(out);
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<T> {
        T::take(r, key)
    }

    fn is_empty(value: &T) -> bool {
        value.is_empty()
    }
}

/// A shape written as the fields of a JSON object: nested as an
/// object of its own, or inlined (`..field`) into an enclosing one.
pub(crate) trait Fields: Sized {
    /// Writes this value's fields into `o`.
    fn put_fields(&self, o: &mut Obj<'_>);
    /// Reads this value's fields from the open object `r` is in,
    /// through its `}`, offering every key it does not own to `outer`.
    fn take_fields<'a>(r: &mut Reader<'a>, outer: Keys<'_, 'a>) -> Decoded<Self>;
}

impl<T: Fields> Fields for Box<T> {
    fn put_fields(&self, o: &mut Obj<'_>) {
        T::put_fields(self, o);
    }

    fn take_fields<'a>(r: &mut Reader<'a>, outer: Keys<'_, 'a>) -> Decoded<Self> {
        T::take_fields(r, outer).map(Box::new)
    }
}

/// A tagged enum: a tag row naming the variant, then the variant's own
/// rows ([`wire_enum!`]).
pub(crate) trait Tagged {
    /// Writes the tag row, then `meta`'s rows, then the variant's rows.
    fn put_tagged(&self, o: &mut Obj<'_>, meta: impl FnOnce(&mut Obj<'_>));
    /// The tag row's value: the variant's wire name.
    fn tag(&self) -> &'static str;
}

/// The raw values of a tagged object's discriminator keys, the last
/// occurrence of each winning, indexed like its key list ([`tagged`]).
pub(crate) type Tags<'a> = [Option<&'a str>; 6];

/// Records the raw value of `key` if it is one of the discriminator
/// `keys`.
fn see<'a>(r: &mut Reader<'a>, keys: &[&str], key: &str, tags: &mut Tags<'a>) -> Decoded<bool> {
    let i = keys.iter().position(|k| *k == key);
    if let Some(i) = i {
        tags[i] = Some(r.skip()?);
    }
    Ok(i.is_some())
}

/// Reads a tagged object — one whose discriminator `keys` (its tag,
/// then any line-kind flags) select the variant that `body` reads —
/// from the open object `r` is in.
///
/// The encoder writes the discriminators ahead of the rows, so the keys
/// before the first row (past any the enclosing shapes take) decide the
/// variant, and the object is read once. When a later discriminator
/// changes them, or `body` fails (no tag yet, say), the object is
/// scanned once for its discriminators and, if they differ, read once
/// more: no line makes decoding superlinear.
pub(crate) fn tagged<'a, T>(
    r: &mut Reader<'a>,
    keys: &[&str],
    outer: Keys<'_, 'a>,
    mut body: impl FnMut(&Tags<'a>, &mut Reader<'a>, Keys<'_, 'a>) -> Decoded<T>,
) -> Decoded<T> {
    let (start, mut tags, mut fixed) = (r.mark(), Tags::default(), false);
    loop {
        let at = r.mark();
        match r.next_key()? {
            Some(key) if see(r, keys, &key, &mut tags)? || outer(&key, r)? => {}
            _ => break r.reset(at),
        }
    }
    loop {
        let mut late = tags;
        let value = body(&tags, r, &mut |key, r| {
            Ok(see(r, keys, key, &mut late)? || outer(key, r)?)
        });
        if fixed || (value.is_ok() && late == tags) {
            return value;
        }
        // Scan for the discriminators alone, then read with them.
        r.reset(start);
        let mut seen = Tags::default();
        each_key(r, |key, r| see(r, keys, key, &mut seen))?;
        if value.is_err() && seen == tags {
            return value;
        }
        (tags, fixed) = (seen, true);
        r.reset(start);
    }
}

/// A string discriminator's value.
pub(crate) fn tag_str(raw: Option<&str>) -> Option<Cow<'_, str>> {
    Reader::new(raw?).string().ok()
}

/// Whether line-kind flag `name` (`done`, `stream`) is `true`.
pub(crate) fn flag_set(keys: &[&str], tags: &Tags<'_>, name: &str) -> bool {
    (keys.iter().zip(tags)).any(|(k, value)| *k == name && *value == Some("true"))
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

            fn take(r: &mut $crate::json::Reader<'_>, key: &str) -> $crate::wire::Decoded<Self> {
                $crate::wire::open(r, b'{', key, "an object")?;
                $crate::wire::Fields::take_fields(r, &mut |_, _| Ok(false))
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

/// Decode half of a row list, reading the open object `$r` is in with
/// `$outer` as the enclosing rows: one slot per keyed row, filled by
/// one pass over the keys (the inlined shape's pass when there is a
/// `..field` row), then each field from its slot in row order, then
/// the value — `(struct Ty)` builds `Ty { fields }`, `(ctor ...)`
/// evaluates the given constructor.
macro_rules! wire_take {
    ($r:ident $outer:ident $mode:tt; $($rows:tt)*) => {
        $crate::wire::wire_take!(@ $r $outer [] [] [] [] [] $mode; $($rows)*)
    };
    (@ $r:ident $outer:ident [$($pre:tt)*] [$($arms:tt)*] [$($fin:tt)*] [$($ids:ident)*]
        [$($inl:ident)?] $mode:tt;) => {{
        $($pre)*
        $crate::wire::wire_take!(@pass $r [$($inl)?]
            |key, $r| Ok(match key { $($arms)* _ => $outer(key, $r)? }));
        $($fin)*
        $crate::wire::wire_take!(@ctor [$($ids)*] $mode)
    }};
    (@pass $r:ident [] $($keys:tt)*) => {
        $crate::wire::each_key($r, $($keys)*)?
    };
    (@pass $r:ident [$inl:ident] $($keys:tt)*) => {
        let $inl = $crate::wire::Fields::take_fields($r, &mut $($keys)*)?;
    };
    (@ctor [$($ids:ident)*] (struct $ty:ident)) => {
        $ty { $($ids),* }
    };
    (@ctor [$($ids:ident)*] (ctor $($ctor:tt)*)) => {
        $($ctor)*
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt $fin:tt [$($ids:ident)*] [] $mode:tt;
        .. $f:ident $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@ $r $outer $pre $arms $fin [$($ids)* $f] [$f] $mode; $($($rest)*)?)
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt $fin:tt $ids:tt $inl:tt $mode:tt;
        $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@ $r $outer $pre $arms $fin $ids $inl $mode; $($($rest)*)?)
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt $fin:tt $ids:tt $inl:tt $mode:tt;
        $key:literal : $f:ident $(via $c:ty)? = $d:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@row $r $outer $pre $arms $fin $ids $inl $mode;
            $key $f ($($c)?) (Ok($d)); $($($rest)*)?)
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt $fin:tt $ids:tt $inl:tt $mode:tt;
        $key:literal : $f:ident $(via $c:ty)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@row $r $outer $pre $arms $fin $ids $inl $mode;
            $key $f ($($c)?) (Err($crate::wire::missing($key))); $($($rest)*)?)
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt $fin:tt $ids:tt $inl:tt $mode:tt;
        $key:literal : $f:ident $(dflt)? $(omit)? $(via $c:ty)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@row $r $outer $pre $arms $fin $ids $inl $mode;
            $key $f ($($c)?) (Ok(Default::default())); $($($rest)*)?)
    };
    (@row $r:ident $outer:ident [$($pre:tt)*] [$($arms:tt)*] [$($fin:tt)*] [$($ids:ident)*] $inl:tt
        $mode:tt; $key:literal $f:ident ($($c:ty)?) ($absent:expr); $($rest:tt)*) => {
        $crate::wire::wire_take!(@ $r $outer [$($pre)* let mut $f = None;]
            [$($arms)* $key => $crate::wire::read($r, &mut $f, |$r| {
                <$crate::wire::wire_codec!($($c)?) as $crate::wire::Codec<_>>::take($r, $key)
            })?,]
            [$($fin)* let $f = $f.unwrap_or_else(|| $absent)?;] [$($ids)* $f] $inl $mode; $($rest)*)
    };
    (@ $r:ident $outer:ident $pre:tt $arms:tt [$($fin:tt)*] [$($ids:ident)*] $inl:tt $mode:tt;
        $f:ident = $d:expr $(, $($rest:tt)*)?) => {
        $crate::wire::wire_take!(@ $r $outer $pre $arms [$($fin)* let $f = $d;] [$($ids)* $f] $inl
            $mode; $($($rest)*)?)
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

            fn take_fields<'a>(r: &mut $crate::json::Reader<'a>, outer: $crate::wire::Keys<'_, 'a>)
                -> $crate::wire::Decoded<Self> {
                let value = $crate::wire::wire_take!(r outer (struct $ty); $($rows)*);
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
/// Implements [`Tagged`] and [`Fields`], decoding through [`tagged`]
/// with the tag and flags as discriminators; `what` names the tag in
/// errors.
macro_rules! wire_enum {
    ($ty:ident, $tag:literal, $what:literal {
        $($var:ident { $($bind:tt)* } = $name:literal $(if $flag:literal)? { $($rows:tt)* }
            $(check $check:path)?),* $(,)?
    }) => {
        impl $crate::wire::Tagged for $ty {
            fn put_tagged(&self, o: &mut $crate::wire::Obj<'_>,
                meta: impl FnOnce(&mut $crate::wire::Obj<'_>)) {
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

            #[allow(unreachable_patterns)]
            fn tag(&self) -> &'static str {
                match self { $($ty::$var { .. } => $name,)* _ => "" }
            }
        }

        impl $crate::wire::Fields for $ty {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                $crate::wire::Tagged::put_tagged(self, o, |_| {});
            }

            fn take_fields<'a>(r: &mut $crate::json::Reader<'a>, outer: $crate::wire::Keys<'_, 'a>)
                -> $crate::wire::Decoded<Self> {
                const KEYS: &[&str] = &[$tag, $($($flag,)?)*];
                $crate::wire::tagged(r, KEYS, outer, |tags, r, outer| {
                    let kind = $crate::wire::tag_str(tags[0])
                        .ok_or_else(|| $crate::wire::bad(concat!("needs a string '", $tag, "'")))?;
                    match &*kind {
                        $($name $(if $crate::wire::flag_set(KEYS, tags, $flag))? => {
                            let value = $crate::wire::wire_take!(r outer
                                (ctor $ty::$var { $($bind)* }); $($rows)*);
                            $(let mut value = value; $check(&mut value)?;)?
                            Ok(value)
                        })*
                        other => Err($crate::wire::bad(format!(concat!("unknown ", $what, " '{}'"), other))),
                    }
                })
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

    /// Reads `text` as the value of field `key`.
    fn taken<T: Wire>(text: &str, key: &str) -> Result<T, ProtocolError> {
        T::take(&mut Reader::new(text), key)
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{0001}f/🦀".to_owned();
        let line = encoded(&original);
        assert_eq!(line, r#""a\"b\\c\nd\te\u0001f/🦀""#);
        let back: String = taken(&line, "s").unwrap();
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
            let back: f64 = taken(&line, "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} re-parsed as {back}");
        }
        // Non-finite floats have no JSON form: they write null, which
        // no number field accepts.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(encoded(&x), "null");
        }
        assert!(taken::<f64>("null", "x").is_err());
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
        assert_eq!(taken::<u8>("255", "n"), Ok(255));
        for bad in ["256", "-1", "1.5", "1e300", "\"7\"", "true"] {
            assert!(taken::<u8>(bad, "n").is_err(), "{bad}");
        }
        assert!(taken::<u32>("4294967296", "n").is_err());
        assert!(taken::<bool>("1", "b").is_err());
        assert!(taken::<String>("1", "s").is_err());
        assert!(taken::<Vec<u64>>("1", "v").is_err());
        assert!(taken::<Vec<u64>>("[1,\"x\"]", "v").is_err());
        // The error names the field and what it must be.
        assert_eq!(
            taken::<bool>("1", "flag"),
            Err(bad("'flag' must be a boolean"))
        );
    }
}
