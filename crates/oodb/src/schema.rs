//! Class model: single inheritance, typed attributes, method declarations.
//!
//! The registry mirrors what a C++ compiler knows about the user's classes
//! in the Open OODB world: it lives in code, not in the database. Method
//! *bodies* are registered separately in [`crate::invoke`]; the schema only
//! holds declarations.

use std::collections::HashMap;
use std::fmt;

use crate::object::{AttrValue, ObjectState};

/// Declared attribute types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// Signed integer.
    Int,
    /// Double-precision float.
    Float,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Reference to another object.
    Ref,
}

impl AttrType {
    /// Whether `value` conforms to this type (Null conforms to all).
    pub fn admits(self, value: &AttrValue) -> bool {
        matches!(
            (self, value),
            (AttrType::Int, AttrValue::Int(_))
                | (AttrType::Float, AttrValue::Float(_))
                | (AttrType::Float, AttrValue::Int(_))
                | (AttrType::Bool, AttrValue::Bool(_))
                | (AttrType::Str, AttrValue::Str(_))
                | (AttrType::Ref, AttrValue::Ref(_))
                | (_, AttrValue::Null)
        )
    }
}

/// A declared method (signature only; bodies live in the method table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    /// Canonical signature, e.g. `void set_price(float price)`.
    pub sig: String,
}

/// A class definition.
#[derive(Debug, Clone, Default)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Single-inheritance parent.
    pub parent: Option<String>,
    /// Own (non-inherited) attributes.
    pub attrs: Vec<(String, AttrType)>,
    /// Own (non-inherited) methods.
    pub methods: Vec<MethodDef>,
}

impl ClassDef {
    /// A class with no parent.
    pub fn new(name: &str) -> Self {
        ClassDef { name: name.to_string(), ..ClassDef::default() }
    }

    /// Sets the parent class.
    pub fn extends(mut self, parent: &str) -> Self {
        self.parent = Some(parent.to_string());
        self
    }

    /// Declares an attribute.
    pub fn attr(mut self, name: &str, ty: AttrType) -> Self {
        self.attrs.push((name.to_string(), ty));
        self
    }

    /// Declares a method by signature.
    pub fn method(mut self, sig: &str) -> Self {
        self.methods.push(MethodDef { sig: sig.to_string() });
        self
    }
}

/// Schema errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Class already registered.
    Duplicate(String),
    /// Parent class missing.
    UnknownParent(String),
    /// Class not registered.
    UnknownClass(String),
    /// Attribute value violates its declared type.
    TypeMismatch {
        /// Class name.
        class: String,
        /// Attribute name.
        attr: String,
    },
    /// Attribute not declared on the class (or its ancestors).
    UnknownAttr {
        /// Class name.
        class: String,
        /// Attribute name.
        attr: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Duplicate(c) => write!(f, "class `{c}` already registered"),
            SchemaError::UnknownParent(c) => write!(f, "unknown parent class `{c}`"),
            SchemaError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            SchemaError::TypeMismatch { class, attr } => {
                write!(f, "type mismatch for `{class}.{attr}`")
            }
            SchemaError::UnknownAttr { class, attr } => {
                write!(f, "attribute `{attr}` not declared on `{class}`")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// The class registry.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    classes: HashMap<String, ClassDef>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a class (its parent must already be registered).
    pub fn register(&mut self, def: ClassDef) -> Result<(), SchemaError> {
        if self.classes.contains_key(&def.name) {
            return Err(SchemaError::Duplicate(def.name));
        }
        if let Some(p) = &def.parent {
            if !self.classes.contains_key(p) {
                return Err(SchemaError::UnknownParent(p.clone()));
            }
        }
        self.classes.insert(def.name.clone(), def);
        Ok(())
    }

    /// Looks a class up.
    pub fn get(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// `class` and its ancestors, nearest first (the paper's inheritance
    /// chain: class-level events on an ancestor fire for descendants).
    pub fn chain(&self, class: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = self.classes.get(class);
        while let Some(c) = cur {
            out.push(c.name.as_str());
            cur = c.parent.as_deref().and_then(|p| self.classes.get(p));
        }
        out
    }

    /// Whether `class` equals or descends from `ancestor`.
    pub fn is_subclass(&self, class: &str, ancestor: &str) -> bool {
        self.chain(class).contains(&ancestor)
    }

    /// All attributes of `class` including inherited ones
    /// (ancestor-first so overrides read naturally).
    pub fn all_attrs(&self, class: &str) -> Vec<(&str, AttrType)> {
        let mut out = Vec::new();
        for c in self.chain(class).iter().rev() {
            if let Some(def) = self.classes.get(*c) {
                for (n, t) in &def.attrs {
                    out.push((n.as_str(), *t));
                }
            }
        }
        out
    }

    /// Resolves a method: returns the *declaring class* (walking up the
    /// chain), or None.
    pub fn resolve_method(&self, class: &str, sig: &str) -> Option<&str> {
        self.chain(class).into_iter().find(|c| {
            self.classes.get(*c).is_some_and(|def| def.methods.iter().any(|m| m.sig == sig))
        })
    }

    /// Checks one attribute value against its declaration on `class` or
    /// the nearest ancestor that declares it.
    pub fn check_attr(
        &self,
        class: &str,
        attr: &str,
        value: &AttrValue,
    ) -> Result<(), SchemaError> {
        let mut cur = self.classes.get(class);
        while let Some(c) = cur {
            if let Some((_, ty)) = c.attrs.iter().rev().find(|(n, _)| n == attr) {
                return if ty.admits(value) {
                    Ok(())
                } else {
                    Err(SchemaError::TypeMismatch {
                        class: class.to_string(),
                        attr: attr.to_string(),
                    })
                };
            }
            cur = c.parent.as_deref().and_then(|p| self.classes.get(p));
        }
        Err(SchemaError::UnknownAttr { class: class.to_string(), attr: attr.to_string() })
    }

    /// Validates an object's attributes against the schema.
    pub fn validate(&self, obj: &ObjectState) -> Result<(), SchemaError> {
        if !self.classes.contains_key(&obj.class) {
            return Err(SchemaError::UnknownClass(obj.class.clone()));
        }
        obj.attrs.iter().try_for_each(|(name, value)| self.check_attr(&obj.class, name, value))
    }

    /// Registered class count.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.register(ClassDef::new("REACTIVE")).unwrap();
        reg.register(
            ClassDef::new("STOCK")
                .extends("REACTIVE")
                .attr("symbol", AttrType::Str)
                .attr("price", AttrType::Float)
                .method("void set_price(float price)")
                .method("int sell_stock(int qty)"),
        )
        .unwrap();
        reg.register(ClassDef::new("TECH_STOCK").extends("STOCK").attr("sector", AttrType::Str))
            .unwrap();
        reg
    }

    #[test]
    fn chain_walks_inheritance() {
        let reg = registry();
        assert_eq!(reg.chain("TECH_STOCK"), vec!["TECH_STOCK", "STOCK", "REACTIVE"]);
        assert!(reg.is_subclass("TECH_STOCK", "REACTIVE"));
        assert!(!reg.is_subclass("STOCK", "TECH_STOCK"));
    }

    #[test]
    fn method_resolution_up_the_chain() {
        let reg = registry();
        assert_eq!(reg.resolve_method("TECH_STOCK", "void set_price(float price)"), Some("STOCK"));
        assert_eq!(reg.resolve_method("TECH_STOCK", "void nope()"), None);
    }

    #[test]
    fn inherited_attrs_visible() {
        let reg = registry();
        let attrs = reg.all_attrs("TECH_STOCK");
        assert!(attrs.iter().any(|(n, _)| *n == "price"));
        assert!(attrs.iter().any(|(n, _)| *n == "sector"));
    }

    #[test]
    fn validation_catches_type_and_name_errors() {
        let reg = registry();
        let ok = ObjectState::new("TECH_STOCK").with("price", 10.0).with("sector", "software");
        reg.validate(&ok).unwrap();
        // Int is admitted where Float is declared (widening).
        reg.validate(&ObjectState::new("STOCK").with("price", 10)).unwrap();
        let bad_type = ObjectState::new("STOCK").with("price", "ten");
        assert!(matches!(reg.validate(&bad_type), Err(SchemaError::TypeMismatch { .. })));
        let bad_attr = ObjectState::new("STOCK").with("volume", 3);
        assert!(matches!(reg.validate(&bad_attr), Err(SchemaError::UnknownAttr { .. })));
        let bad_class = ObjectState::new("BOND");
        assert!(matches!(reg.validate(&bad_class), Err(SchemaError::UnknownClass(_))));
    }

    #[test]
    fn check_attr_uses_the_nearest_declaration() {
        let mut reg = registry();
        reg.register(ClassDef::new("BOND_LIKE").extends("STOCK").attr("price", AttrType::Str))
            .unwrap();
        reg.check_attr("BOND_LIKE", "price", &"par".into()).unwrap();
        assert!(matches!(
            reg.check_attr("BOND_LIKE", "price", &1.5.into()),
            Err(SchemaError::TypeMismatch { .. })
        ));
        reg.check_attr("BOND_LIKE", "symbol", &"T".into()).unwrap();
        assert!(matches!(
            reg.check_attr("STOCK", "sector", &"x".into()),
            Err(SchemaError::UnknownAttr { .. })
        ));
    }

    #[test]
    fn duplicate_and_missing_parent_rejected() {
        let mut reg = registry();
        assert!(matches!(reg.register(ClassDef::new("STOCK")), Err(SchemaError::Duplicate(_))));
        assert!(matches!(
            reg.register(ClassDef::new("X").extends("GHOST")),
            Err(SchemaError::UnknownParent(_))
        ));
    }
}
