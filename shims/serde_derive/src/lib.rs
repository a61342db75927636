//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented with hand-rolled token parsing
//! (no `syn`/`quote`, which are unavailable in this build environment).
//!
//! Supported input shapes — exactly what this workspace declares:
//!
//! - structs with named fields
//! - tuple structs (newtypes serialize as their inner value, matching
//!   serde; `#[serde(transparent)]` is honoured and equivalent)
//! - unit structs
//! - enums with unit, newtype, tuple, and struct variants, using
//!   serde's externally-tagged representation
//! - field attributes `#[serde(default)]` and `#[serde(default = "path")]`
//!
//! Generics are intentionally unsupported (none of the workspace's
//! derived types are generic); deriving on a generic type is a compile
//! error rather than silently wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------
// Parsed item model
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct SerdeAttrs {
    transparent: bool,
    /// `Some(None)` for bare `default`, `Some(Some(path))` for `default = "path"`.
    default: Option<Option<String>>,
}

#[derive(Debug)]
struct NamedField {
    /// The identifier as written (`r#final`): what generated code names.
    name: String,
    /// The wire key (`final`).
    key: String,
    attrs: SerdeAttrs,
}

#[derive(Debug)]
enum Fields {
    Named(Vec<NamedField>),
    Tuple(usize),
    Unit,
}

#[derive(Debug)]
struct Variant {
    /// The identifier as written; see [`NamedField::name`].
    name: String,
    /// The wire key.
    key: String,
    fields: Fields,
}

#[derive(Debug)]
enum ItemKind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    attrs: SerdeAttrs,
    kind: ItemKind,
}

// ---------------------------------------------------------------------
// Token parsing
// ---------------------------------------------------------------------

/// Extracts serde attributes from the token stream of one `#[...]`
/// bracket group; non-serde attributes (doc comments, `#[default]`, other
/// derives' helpers) are ignored.
fn parse_attr_group(group: &proc_macro::Group, attrs: &mut SerdeAttrs) {
    let mut tokens = group.stream().into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return,
    }
    let inner = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g,
        _ => return,
    };
    let mut it = inner.stream().into_iter().peekable();
    while let Some(tok) = it.next() {
        let TokenTree::Ident(name) = tok else { continue };
        match name.to_string().as_str() {
            "transparent" => attrs.transparent = true,
            "default" => {
                let mut path = None;
                if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                    it.next();
                    if let Some(TokenTree::Literal(lit)) = it.next() {
                        let s = lit.to_string();
                        path = Some(s.trim_matches('"').to_string());
                    }
                }
                attrs.default = Some(path);
            }
            // Unsupported serde attributes (rename, skip, flatten, tag,
            // ...) would change the wire format silently; reject them.
            other => panic!("serde shim derive: unsupported attribute `{other}`"),
        }
        // Skip to the next comma-separated entry.
        for t in it.by_ref() {
            if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
    }
}

/// Consumes leading `#[...]` attribute groups, folding serde attrs.
fn take_attrs(it: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    loop {
        match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                it.next();
                match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        parse_attr_group(&g, &mut attrs);
                    }
                    other => panic!("serde shim derive: malformed attribute: {other:?}"),
                }
            }
            _ => return attrs,
        }
    }
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...), if present.
fn skip_visibility(it: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consumes tokens up to (and including) the next top-level comma.
/// Tracks `<`/`>` depth so commas inside generic type arguments (e.g.
/// `Vec<(SimTime, f64)>`) don't terminate early; parenthesized tuples
/// arrive as atomic groups and need no tracking.
fn skip_type(it: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    let mut angle_depth = 0i32;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// The wire key of an identifier: a raw identifier (`r#type`) names the
/// key `type`, as in upstream serde.
fn wire_key(ident: &str) -> String {
    ident.strip_prefix("r#").unwrap_or(ident).to_string()
}

fn parse_named_fields(group: &proc_macro::Group) -> Vec<NamedField> {
    let mut fields = Vec::new();
    let mut it = group.stream().into_iter().peekable();
    while it.peek().is_some() {
        let attrs = take_attrs(&mut it);
        skip_visibility(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => panic!("serde shim derive: expected field name, got {other}"),
            None => break,
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&mut it);
        fields.push(NamedField { key: wire_key(&name), name, attrs });
    }
    fields
}

fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let mut count = 0;
    let mut it = group.stream().into_iter().peekable();
    while it.peek().is_some() {
        let _ = take_attrs(&mut it);
        skip_visibility(&mut it);
        if it.peek().is_none() {
            break;
        }
        skip_type(&mut it);
        count += 1;
    }
    count
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = group.stream().into_iter().peekable();
    while it.peek().is_some() {
        let _ = take_attrs(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => panic!("serde shim derive: expected variant name, got {other}"),
            None => break,
        };
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.clone();
                it.next();
                Fields::Tuple(count_tuple_fields(&g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.clone();
                it.next();
                Fields::Named(parse_named_fields(&g))
            }
            _ => Fields::Unit,
        };
        // Consume up to the separating comma (skips discriminants).
        for tok in it.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { key: wire_key(&name), name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let attrs = take_attrs(&mut it);
    skip_visibility(&mut it);
    let kind_kw = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected item name, got {other:?}"),
    };
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (deriving on `{name}`)");
    }
    let kind = match kind_kw.as_str() {
        "struct" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Struct(Fields::Named(parse_named_fields(&g)))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::Struct(Fields::Tuple(count_tuple_fields(&g)))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => ItemKind::Struct(Fields::Unit),
            other => panic!("serde shim derive: malformed struct `{name}`: {other:?}"),
        },
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(&g))
            }
            other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: expected struct or enum, got `{other}`"),
    };
    Item { name, attrs, kind }
}

// ---------------------------------------------------------------------
// Code generation (string-built, then re-parsed)
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            if item.attrs.transparent && fields.len() == 1 {
                format!("::serde::Serialize::serialize(&self.{})", fields[0].name)
            } else {
                let mut s = String::from(
                    "let mut __m: Vec<(String, ::serde::Content)> = Vec::new();\n",
                );
                for f in fields {
                    s.push_str(&format!(
                        "__m.push((String::from(\"{}\"), ::serde::Serialize::serialize(&self.{})));\n",
                        f.key, f.name
                    ));
                }
                s.push_str("::serde::Content::Map(__m)");
                s
            }
        }
        ItemKind::Struct(Fields::Tuple(1)) => {
            // Newtype structs serialize as the inner value (serde's
            // convention, which `#[serde(transparent)]` also produces).
            "::serde::Serialize::serialize(&self.0)".to_string()
        }
        ItemKind::Struct(Fields::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", elems.join(", "))
        }
        ItemKind::Struct(Fields::Unit) => "::serde::Content::Null".to_string(),
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let (vname, vkey) = (&v.name, &v.key);
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Content::Str(String::from(\"{vkey}\")),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => ::serde::Content::Map(vec![(String::from(\"{vkey}\"), ::serde::Serialize::serialize(__f0))]),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::serialize(__f{i})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::Content::Map(vec![(String::from(\"{vkey}\"), ::serde::Content::Seq(vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = String::from(
                            "let mut __vm: Vec<(String, ::serde::Content)> = Vec::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "__vm.push((String::from(\"{}\"), ::serde::Serialize::serialize({})));\n",
                                f.key, f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n{inner}::serde::Content::Map(vec![(String::from(\"{vkey}\"), ::serde::Content::Map(__vm))])\n}},\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Content {{\n{body}\n}}\n}}\n"
    )
}

/// Emits the expression rebuilding one named field from map entries
/// bound to `__m`, honouring default attributes.
fn named_field_expr(f: &NamedField, ty_name: &str) -> String {
    let fallback = match &f.attrs.default {
        None => format!(
            "return Err(::serde::DeError::missing_field(\"{}\", \"{ty_name}\"))",
            f.key
        ),
        Some(None) => "::core::default::Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
    };
    format!(
        "{}: match ::serde::content_get(__m, \"{}\") {{\n\
         Some(__v) => ::serde::Deserialize::deserialize(__v)?,\n\
         None => {fallback},\n}}",
        f.name, f.key
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            if item.attrs.transparent && fields.len() == 1 {
                format!(
                    "Ok({name} {{ {}: ::serde::Deserialize::deserialize(__c)? }})",
                    fields[0].name
                )
            } else {
                let field_exprs: Vec<String> =
                    fields.iter().map(|f| named_field_expr(f, name)).collect();
                format!(
                    "let __m = __c.as_map().ok_or_else(|| ::serde::DeError::expected(\"map\", \"{name}\"))?;\n\
                     Ok({name} {{\n{}\n}})",
                    field_exprs.join(",\n")
                )
            }
        }
        ItemKind::Struct(Fields::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::deserialize(__c)?))")
        }
        ItemKind::Struct(Fields::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = __c.as_seq().ok_or_else(|| ::serde::DeError::expected(\"sequence\", \"{name}\"))?;\n\
                 if __s.len() != {n} {{ return Err(::serde::DeError::expected(\"sequence of length {n}\", \"{name}\")); }}\n\
                 Ok({name}({}))",
                elems.join(", ")
            )
        }
        ItemKind::Struct(Fields::Unit) => format!("Ok({name})"),
        ItemKind::Enum(variants) => {
            let mut str_arms = String::new();
            let mut map_arms = String::new();
            for v in variants {
                let (vname, vkey) = (&v.name, &v.key);
                match &v.fields {
                    Fields::Unit => {
                        str_arms
                            .push_str(&format!("\"{vkey}\" => Ok({name}::{vname}),\n"));
                        map_arms
                            .push_str(&format!("\"{vkey}\" => Ok({name}::{vname}),\n"));
                    }
                    Fields::Tuple(1) => map_arms.push_str(&format!(
                        "\"{vkey}\" => Ok({name}::{vname}(::serde::Deserialize::deserialize(__v)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::deserialize(&__s[{i}])?"))
                            .collect();
                        map_arms.push_str(&format!(
                            "\"{vkey}\" => {{\n\
                             let __s = __v.as_seq().ok_or_else(|| ::serde::DeError::expected(\"sequence\", \"{name}::{vkey}\"))?;\n\
                             if __s.len() != {n} {{ return Err(::serde::DeError::expected(\"sequence of length {n}\", \"{name}::{vkey}\")); }}\n\
                             Ok({name}::{vname}({}))\n}},\n",
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let field_exprs: Vec<String> = fields
                            .iter()
                            .map(|f| named_field_expr(f, &format!("{name}::{vkey}")))
                            .collect();
                        map_arms.push_str(&format!(
                            "\"{vkey}\" => {{\n\
                             let __m = __v.as_map().ok_or_else(|| ::serde::DeError::expected(\"map\", \"{name}::{vkey}\"))?;\n\
                             Ok({name}::{vname} {{\n{}\n}})\n}},\n",
                            field_exprs.join(",\n")
                        ));
                    }
                }
            }
            format!(
                "match __c {{\n\
                 ::serde::Content::Str(__s) => match __s.as_str() {{\n{str_arms}\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n}},\n\
                 ::serde::Content::Map(__map) if __map.len() == 1 => {{\n\
                 let (__k, __v) = &__map[0];\n\
                 let _ = __v;\n\
                 match __k.as_str() {{\n{map_arms}\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n}}\n}},\n\
                 _ => Err(::serde::DeError::expected(\"variant string or single-key map\", \"{name}\")),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__c: &::serde::Content) -> ::core::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}\n"
    )
}

/// Derives the shim's `Serialize` trait (see crate docs for coverage).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive: generated Serialize impl parses")
}

/// Derives the shim's `Deserialize` trait (see crate docs for coverage).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive: generated Deserialize impl parses")
}
