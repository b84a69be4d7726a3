//! Method invocation with wrapper hooks — the seam Sentinel's
//! post-processor uses.
//!
//! In the Open OODB, the pre-processor renames the user method to
//! `user_<name>` and generates a wrapper that collects parameters and calls
//! `Notify(...)` before and/or after invoking the original (§3.2.1). Here
//! [`Database::invoke`] *is* that wrapper: method bodies are registered
//! closures (the `user_` methods), and installed [`InvocationHooks`] run
//! around them with the collected parameter list. The database stays
//! passive — it calls whatever hooks are installed and `sentinel-core`
//! installs the event bridge.
//!
//! What the post-processor would generate once per method is resolved once
//! here too: declaring class, class chain and body of a `(class,
//! signature)` pair are cached until the schema or the method table
//! changes. And as the Open OODB faults an object into the address space
//! once, the wrapper decodes the receiver once, lets the body read and
//! write that copy ([`MethodCtx::get_attr`], [`MethodCtx::set_attr`]), and
//! writes it back with one storage update when the body returns.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use sentinel_storage::{StorageEngine, StorageError, TxnId};

use crate::names::NameManager;
use crate::object::{AttrValue, ObjectState, Oid};
use crate::schema::{ClassRegistry, SchemaError};
use crate::store::ObjectStore;

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Schema violation.
    Schema(SchemaError),
    /// Method not declared on the object's class chain.
    NoSuchMethod {
        /// The object's class.
        class: String,
        /// Requested signature.
        sig: String,
    },
    /// Method declared but no body registered.
    NoBody {
        /// Declaring class.
        class: String,
        /// Signature.
        sig: String,
    },
    /// Application-level failure raised by a method body.
    App(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Schema(e) => write!(f, "schema error: {e}"),
            DbError::NoSuchMethod { class, sig } => {
                write!(f, "no method `{sig}` on class `{class}`")
            }
            DbError::NoBody { class, sig } => {
                write!(f, "no body registered for `{class}::{sig}`")
            }
            DbError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<SchemaError> for DbError {
    fn from(e: SchemaError) -> Self {
        DbError::Schema(e)
    }
}

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

/// Everything a wrapper notification carries — the paper's
/// `Notify(current_obj, class_name, method_name, event_modifier, para_list)`.
///
/// The class facts are shared with the wrapper cache, so building one costs
/// reference-count bumps, not string copies.
#[derive(Debug, Clone)]
pub struct MethodCall {
    /// The receiver object.
    pub oid: Oid,
    /// The receiver's concrete class.
    pub class: Arc<str>,
    /// The class chain (concrete class first, then ancestors) — class-level
    /// events declared on an ancestor must fire for descendants.
    pub chain: Arc<[Arc<str>]>,
    /// The class that declares the method.
    pub declaring_class: Arc<str>,
    /// Canonical method signature.
    pub sig: Arc<str>,
    /// Collected parameters (`PARA_LIST`).
    pub args: Vec<(String, AttrValue)>,
    /// Enclosing transaction.
    pub txn: TxnId,
}

/// The code the Sentinel post-processor puts around a user method: the
/// generated wrapper collects the parameters once, notifies, calls the
/// `user_…` method, and notifies again.
pub trait InvocationHooks: Send + Sync {
    /// Wraps one invocation. Call `body` exactly once: before it returns
    /// the receiver's new state is in the store. What must happen only
    /// after a successful body goes behind `body()?`.
    fn around(
        &self,
        call: &MethodCall,
        body: &mut dyn FnMut() -> DbResult<AttrValue>,
    ) -> DbResult<AttrValue>;
}

/// The receiver as the wrapper faulted it in: decoded once per invocation,
/// read and written in memory by the body, written back once.
struct Receiver {
    state: ObjectState,
    /// The transaction's savepoint mark when `state` was read. A different
    /// mark later means the transaction wrote in between, maybe this
    /// object.
    mark: u64,
    /// `state` has attribute writes the store has not seen.
    dirty: bool,
    /// Code that can reach the store ran since `state` was read or last
    /// checked: compare marks before the next use.
    unchecked: bool,
}

/// Execution context handed to a method body (the `user_…` function).
pub struct MethodCtx<'a> {
    db: &'a Database,
    /// Enclosing transaction.
    pub txn: TxnId,
    /// Receiver object.
    pub oid: Oid,
    /// Actual arguments.
    pub args: &'a [(String, AttrValue)],
    receiver: RefCell<Receiver>,
}

impl<'a> MethodCtx<'a> {
    /// Positional/named argument lookup.
    pub fn arg(&self, name: &str) -> Option<&AttrValue> {
        self.args.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The receiver copy, re-read first if the transaction has written
    /// since it was taken.
    fn receiver(&self) -> DbResult<RefMut<'_, Receiver>> {
        let mut r = self.receiver.borrow_mut();
        if r.unchecked {
            let mark = self.db.engine.savepoint(self.txn)?;
            if mark != r.mark {
                r.state = self.db.store.get(self.txn, self.oid)?;
                r.mark = mark;
            }
            r.unchecked = false;
        }
        Ok(r)
    }

    /// Reads an attribute of the receiver (its own earlier writes included).
    pub fn get_attr(&self, name: &str) -> DbResult<AttrValue> {
        Ok(self.receiver()?.state.get(name).cloned().unwrap_or(AttrValue::Null))
    }

    /// Writes an attribute of the receiver. The value is checked against
    /// the schema here; the store sees it when the body returns or asks for
    /// [`Self::db`], whichever is first.
    pub fn set_attr(&self, name: &str, value: impl Into<AttrValue>) -> DbResult<()> {
        let value = value.into();
        let mut r = self.receiver()?;
        self.db.registry.read().check_attr(&r.state.class, name, &value)?;
        r.state.set(name, value);
        r.dirty = true;
        Ok(())
    }

    /// Validates, encodes and writes the receiver back if the body changed it.
    fn flush(&self) -> DbResult<()> {
        let mut r = self.receiver.borrow_mut();
        if r.dirty {
            self.db.registry.read().validate(&r.state)?;
            self.db.store.update(self.txn, self.oid, &r.state)?;
            r.dirty = false;
        }
        Ok(())
    }

    /// The database, for bodies that read or write other objects or invoke
    /// other methods. The receiver's pending writes are stored first, and
    /// what the body does through the database is seen by its next
    /// `get_attr`/`set_attr`.
    pub fn db(&self) -> DbResult<&'a Database> {
        self.flush()?;
        let mut r = self.receiver.borrow_mut();
        r.mark = self.db.engine.savepoint(self.txn)?;
        r.unchecked = true;
        Ok(self.db)
    }
}

/// A registered method body.
pub type MethodBody = Arc<dyn for<'a> Fn(&MethodCtx<'a>) -> DbResult<AttrValue> + Send + Sync>;

/// What the wrapper of one `(class, signature)` pair needs on every call.
struct Wrapper {
    class: Arc<str>,
    chain: Arc<[Arc<str>]>,
    declaring_class: Arc<str>,
    sig: Arc<str>,
    body: MethodBody,
}

/// `class → signature → value`, looked up with borrowed strings.
type BySig<T> = HashMap<String, HashMap<String, T>>;

/// The passive object database: schema + store + names + method dispatch.
pub struct Database {
    engine: Arc<StorageEngine>,
    store: Arc<ObjectStore>,
    names: NameManager,
    registry: RwLock<ClassRegistry>,
    /// Bodies by declaring class.
    methods: RwLock<BySig<MethodBody>>,
    /// Resolved wrappers by receiver class; emptied whenever a class or a
    /// body is registered.
    wrappers: RwLock<BySig<Arc<Wrapper>>>,
    hooks: RwLock<Arc<[Arc<dyn InvocationHooks>]>>,
}

impl Database {
    /// Opens a database over `engine`.
    pub fn open(engine: Arc<StorageEngine>) -> DbResult<Self> {
        let store = Arc::new(ObjectStore::open(engine.clone())?);
        Ok(Database {
            engine,
            names: NameManager::new(store.clone()),
            store,
            registry: RwLock::new(ClassRegistry::new()),
            methods: RwLock::new(HashMap::new()),
            wrappers: RwLock::new(HashMap::new()),
            hooks: RwLock::new(Arc::new([])),
        })
    }

    /// An ephemeral in-memory database.
    pub fn in_memory() -> Self {
        Self::open(Arc::new(StorageEngine::in_memory())).expect("in-memory db")
    }

    /// The storage engine.
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    /// The object store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The name manager.
    pub fn names(&self) -> &NameManager {
        &self.names
    }

    /// Read access to the class registry.
    pub fn registry(&self) -> parking_lot::RwLockReadGuard<'_, ClassRegistry> {
        self.registry.read()
    }

    /// Registers a class.
    pub fn register_class(&self, def: crate::schema::ClassDef) -> DbResult<()> {
        self.registry.write().register(def)?;
        self.wrappers.write().clear();
        Ok(())
    }

    /// Registers a method body on `(class, sig)`.
    pub fn register_method(&self, class: &str, sig: &str, body: MethodBody) {
        self.methods.write().entry(class.to_string()).or_default().insert(sig.to_string(), body);
        self.wrappers.write().clear();
    }

    /// Installs invocation hooks (the Sentinel event bridge). Hooks nest:
    /// the first installed is outermost.
    pub fn add_hooks(&self, hooks: Arc<dyn InvocationHooks>) {
        let mut installed = self.hooks.write();
        *installed = installed.iter().cloned().chain([hooks]).collect();
    }

    // --- transactions (delegated; the active layer wraps these) ---------

    /// Begins a top-level transaction.
    pub fn begin(&self) -> DbResult<TxnId> {
        Ok(self.engine.begin()?)
    }

    /// Commits a transaction.
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        Ok(self.engine.commit(txn)?)
    }

    /// Aborts a transaction.
    pub fn abort(&self, txn: TxnId) -> DbResult<()> {
        Ok(self.engine.abort(txn)?)
    }

    // --- objects ---------------------------------------------------------

    /// Creates an object (validated against the schema).
    pub fn create_object(&self, txn: TxnId, state: &ObjectState) -> DbResult<Oid> {
        self.registry.read().validate(state)?;
        Ok(self.store.create(txn, state)?)
    }

    /// Reads an object.
    pub fn get_object(&self, txn: TxnId, oid: Oid) -> DbResult<ObjectState> {
        Ok(self.store.get(txn, oid)?)
    }

    /// Deletes an object.
    pub fn delete_object(&self, txn: TxnId, oid: Oid) -> DbResult<()> {
        Ok(self.store.delete(txn, oid)?)
    }

    /// The wrapper of `sig` for receivers of `class`: from the cache, or
    /// resolved up the inheritance chain and cached.
    fn wrapper(&self, class: &str, sig: &str) -> DbResult<Arc<Wrapper>> {
        if let Some(w) = self.wrappers.read().get(class).and_then(|by_sig| by_sig.get(sig)) {
            return Ok(w.clone());
        }
        // Resolved under the cache's write lock, so that a registration
        // that this resolution missed empties the cache after the insert.
        let mut wrappers = self.wrappers.write();
        let registry = self.registry.read();
        let declaring = registry.resolve_method(class, sig).ok_or_else(|| {
            DbError::NoSuchMethod { class: class.to_string(), sig: sig.to_string() }
        })?;
        let body = self
            .methods
            .read()
            .get(declaring)
            .and_then(|by_sig| by_sig.get(sig))
            .cloned()
            .ok_or_else(|| DbError::NoBody {
            class: declaring.to_string(),
            sig: sig.to_string(),
        })?;
        let wrapper = Arc::new(Wrapper {
            class: Arc::from(class),
            chain: registry.chain(class).into_iter().map(Arc::from).collect(),
            declaring_class: Arc::from(declaring),
            sig: Arc::from(sig),
            body,
        });
        wrappers.entry(class.to_string()).or_default().insert(sig.to_string(), wrapper.clone());
        Ok(wrapper)
    }

    /// Invokes `sig` on `oid` — the wrapper method. Faults the receiver in
    /// once, runs the installed hooks around the registered body (resolved
    /// up the inheritance chain), writes the receiver back once if the body
    /// changed it — whether the body returned `Ok` or `Err` — and returns
    /// the body's result.
    pub fn invoke(
        &self,
        txn: TxnId,
        oid: Oid,
        sig: &str,
        args: Vec<(String, AttrValue)>,
    ) -> DbResult<AttrValue> {
        // The mark is taken first: a write that slips in between makes the
        // copy look stale, never fresh.
        let mark = self.engine.savepoint(txn)?;
        let state = self.store.get(txn, oid)?;
        let wrapper = self.wrapper(&state.class, sig)?;
        let call = MethodCall {
            oid,
            class: wrapper.class.clone(),
            chain: wrapper.chain.clone(),
            declaring_class: wrapper.declaring_class.clone(),
            sig: wrapper.sig.clone(),
            args,
            txn,
        };
        // Hooks run rules before the body does: the copy is unchecked.
        let mut receiver = Some(Receiver { state, mark, dirty: false, unchecked: true });
        let mut body = || {
            let receiver = receiver.take().expect("hooks call the body once");
            let ctx = MethodCtx {
                db: self,
                txn,
                oid,
                args: &call.args,
                receiver: RefCell::new(receiver),
            };
            let result = (wrapper.body)(&ctx);
            let flushed = ctx.flush();
            let value = result?;
            flushed?;
            Ok(value)
        };
        let hooks = self.hooks.read().clone();
        around(&hooks, &call, &mut body)
    }
}

/// Runs `body` inside every hook, the first outermost.
fn around(
    hooks: &[Arc<dyn InvocationHooks>],
    call: &MethodCall,
    body: &mut dyn FnMut() -> DbResult<AttrValue>,
) -> DbResult<AttrValue> {
    match hooks.split_first() {
        None => body(),
        Some((outer, inner)) => outer.around(call, &mut || around(inner, call, body)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, ClassDef, SchemaError};
    use parking_lot::Mutex;

    fn stock_db() -> Database {
        let db = Database::in_memory();
        db.register_class(ClassDef::new("REACTIVE")).unwrap();
        db.register_class(
            ClassDef::new("STOCK")
                .extends("REACTIVE")
                .attr("symbol", AttrType::Str)
                .attr("price", AttrType::Float)
                .attr("holdings", AttrType::Int)
                .method("void set_price(float price)")
                .method("int sell_stock(int qty)"),
        )
        .unwrap();
        db.register_method(
            "STOCK",
            "void set_price(float price)",
            Arc::new(|ctx| {
                let price = ctx.arg("price").and_then(AttrValue::as_float).unwrap_or(0.0);
                ctx.set_attr("price", price)?;
                Ok(AttrValue::Null)
            }),
        );
        db.register_method(
            "STOCK",
            "int sell_stock(int qty)",
            Arc::new(|ctx| {
                let qty = ctx.arg("qty").and_then(|v| v.as_int()).unwrap_or(0);
                let held = ctx.get_attr("holdings")?.as_int().unwrap_or(0);
                if qty > held {
                    return Err(DbError::App(format!("cannot sell {qty}, hold {held}")));
                }
                ctx.set_attr("holdings", held - qty)?;
                Ok(AttrValue::Int(held - qty))
            }),
        );
        db
    }

    fn ibm(db: &Database, txn: TxnId) -> Oid {
        db.create_object(
            txn,
            &ObjectState::new("STOCK")
                .with("symbol", "IBM")
                .with("price", 100.0)
                .with("holdings", 10),
        )
        .unwrap()
    }

    #[test]
    fn invoke_runs_body_and_mutates_state() {
        let db = stock_db();
        let t = db.begin().unwrap();
        let oid = ibm(&db, t);
        db.invoke(t, oid, "void set_price(float price)", vec![("price".into(), 123.5.into())])
            .unwrap();
        assert_eq!(db.get_object(t, oid).unwrap().get("price").unwrap().as_float(), Some(123.5));
        let left =
            db.invoke(t, oid, "int sell_stock(int qty)", vec![("qty".into(), 4.into())]).unwrap();
        assert_eq!(left.as_int(), Some(6));
        db.commit(t).unwrap();
    }

    #[test]
    fn app_errors_propagate() {
        let db = stock_db();
        let t = db.begin().unwrap();
        let oid = ibm(&db, t);
        let err = db.invoke(t, oid, "int sell_stock(int qty)", vec![("qty".into(), 99.into())]);
        assert!(matches!(err, Err(DbError::App(_))));
        db.abort(t).unwrap();
    }

    #[test]
    fn hooks_fire_before_and_after_with_parameters() {
        struct Recorder(Mutex<Vec<String>>);
        impl InvocationHooks for Recorder {
            fn around(
                &self,
                call: &MethodCall,
                body: &mut dyn FnMut() -> DbResult<AttrValue>,
            ) -> DbResult<AttrValue> {
                self.0.lock().push(format!("before {} args={}", call.sig, call.args.len()));
                let result = body()?;
                self.0.lock().push(format!("after {}", call.sig));
                Ok(result)
            }
        }
        let db = stock_db();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        db.add_hooks(rec.clone());
        let t = db.begin().unwrap();
        let oid = ibm(&db, t);
        db.invoke(t, oid, "void set_price(float price)", vec![("price".into(), 1.0.into())])
            .unwrap();
        db.commit(t).unwrap();
        let log = rec.0.lock();
        assert_eq!(
            *log,
            vec![
                "before void set_price(float price) args=1".to_string(),
                "after void set_price(float price)".to_string(),
            ]
        );
    }

    #[test]
    fn inherited_method_resolves_to_declaring_class() {
        let db = stock_db();
        db.register_class(
            ClassDef::new("TECH_STOCK").extends("STOCK").attr("sector", AttrType::Str),
        )
        .unwrap();
        struct ChainCheck(Mutex<Vec<String>>);
        impl InvocationHooks for ChainCheck {
            fn around(
                &self,
                call: &MethodCall,
                body: &mut dyn FnMut() -> DbResult<AttrValue>,
            ) -> DbResult<AttrValue> {
                assert_eq!(&*call.declaring_class, "STOCK");
                assert_eq!(&*call.class, "TECH_STOCK");
                self.0.lock().extend(call.chain.iter().map(|c| c.to_string()));
                body()
            }
        }
        let check = Arc::new(ChainCheck(Mutex::new(Vec::new())));
        db.add_hooks(check.clone());
        let t = db.begin().unwrap();
        let oid = db
            .create_object(
                t,
                &ObjectState::new("TECH_STOCK")
                    .with("symbol", "MSFT")
                    .with("price", 50.0)
                    .with("holdings", 1)
                    .with("sector", "software"),
            )
            .unwrap();
        db.invoke(t, oid, "void set_price(float price)", vec![("price".into(), 2.0.into())])
            .unwrap();
        db.commit(t).unwrap();
        assert_eq!(*check.0.lock(), vec!["TECH_STOCK", "STOCK", "REACTIVE"]);
    }

    #[test]
    fn unknown_method_and_missing_body_errors() {
        let db = stock_db();
        db.register_class(ClassDef::new("BARE").extends("REACTIVE").method("void declared_only()"))
            .unwrap();
        let t = db.begin().unwrap();
        let oid = db.create_object(t, &ObjectState::new("BARE")).unwrap();
        assert!(matches!(
            db.invoke(t, oid, "void ghost()", vec![]),
            Err(DbError::NoSuchMethod { .. })
        ));
        assert!(matches!(
            db.invoke(t, oid, "void declared_only()", vec![]),
            Err(DbError::NoBody { .. })
        ));
        db.abort(t).unwrap();
    }

    #[test]
    fn schema_validation_on_create() {
        let db = stock_db();
        let t = db.begin().unwrap();
        let bad = ObjectState::new("STOCK").with("price", "not a float");
        assert!(matches!(db.create_object(t, &bad), Err(DbError::Schema(_))));
        db.abort(t).unwrap();
    }

    const REPRICE: &str = "void reprice(float price, int holdings)";
    const RESTOCK: &str = "int restock(int qty)";

    /// `stock_db` plus `reprice` (two writes, then the read of one of them)
    /// and `restock` (a write, a nested `sell_stock` on the same receiver,
    /// a read).
    fn write_back_db() -> Database {
        let db = stock_db();
        db.register_class(ClassDef::new("LOT").extends("STOCK").method(REPRICE).method(RESTOCK))
            .unwrap();
        db.register_method(
            "LOT",
            REPRICE,
            Arc::new(|ctx| {
                ctx.set_attr("price", ctx.arg("price").cloned().unwrap_or(AttrValue::Null))?;
                ctx.set_attr("holdings", ctx.arg("holdings").cloned().unwrap_or(AttrValue::Null))?;
                ctx.get_attr("price")
            }),
        );
        db.register_method(
            "LOT",
            RESTOCK,
            Arc::new(|ctx| {
                let qty = ctx.arg("qty").and_then(|v| v.as_int()).unwrap_or(0);
                let held = ctx.get_attr("holdings")?.as_int().unwrap_or(0);
                ctx.set_attr("holdings", held + qty)?;
                let sold = vec![("qty".to_string(), AttrValue::Int(1))];
                let left = ctx.db()?.invoke(ctx.txn, ctx.oid, "int sell_stock(int qty)", sold)?;
                assert_eq!(left.as_int(), Some(held + qty - 1), "nested call saw the write");
                ctx.get_attr("holdings")
            }),
        );
        db
    }

    fn lot(db: &Database, txn: TxnId) -> Oid {
        db.create_object(
            txn,
            &ObjectState::new("LOT")
                .with("symbol", "IBM")
                .with("price", 100.0)
                .with("holdings", 10),
        )
        .unwrap()
    }

    fn reprice_args(price: AttrValue, holdings: AttrValue) -> Vec<(String, AttrValue)> {
        vec![("price".into(), price), ("holdings".into(), holdings)]
    }

    #[test]
    fn a_body_reads_its_own_writes_and_logs_them_once() {
        let db = write_back_db();
        let t = db.begin().unwrap();
        let oid = lot(&db, t);
        let appends = db.engine().wal().stats().appends;
        let seen = db.invoke(t, oid, REPRICE, reprice_args(7.5.into(), 3.into())).unwrap();
        assert_eq!(seen.as_float(), Some(7.5), "get_attr after set_attr reads the own write");
        assert_eq!(db.engine().wal().stats().appends - appends, 1, "two set_attr, one Update");
        let state = db.get_object(t, oid).unwrap();
        assert_eq!(state.get("price").unwrap().as_float(), Some(7.5));
        assert_eq!(state.get("holdings").unwrap().as_int(), Some(3));
        // A body that writes nothing logs nothing.
        let appends = db.engine().wal().stats().appends;
        let sold = vec![("qty".to_string(), AttrValue::Int(99))];
        assert!(db.invoke(t, oid, "int sell_stock(int qty)", sold).is_err());
        assert_eq!(db.engine().wal().stats().appends, appends);
        db.commit(t).unwrap();
    }

    #[test]
    fn a_bad_typed_set_attr_errors_at_the_call_and_changes_nothing() {
        let db = write_back_db();
        let t = db.begin().unwrap();
        let oid = lot(&db, t);
        // The first write is good, the second is refused where it is made:
        // the body fails, and what it had written is stored, as when every
        // set_attr wrote through.
        let err = db.invoke(t, oid, REPRICE, reprice_args(7.5.into(), "many".into()));
        assert!(matches!(err, Err(DbError::Schema(SchemaError::TypeMismatch { .. }))));
        let state = db.get_object(t, oid).unwrap();
        assert_eq!(state.get("price").unwrap().as_float(), Some(7.5));
        assert_eq!(state.get("holdings").unwrap().as_int(), Some(10), "copy left unchanged");
        // Refused first: nothing to store at all.
        let appends = db.engine().wal().stats().appends;
        let err = db.invoke(t, oid, REPRICE, reprice_args("ten".into(), 1.into()));
        assert!(matches!(err, Err(DbError::Schema(SchemaError::TypeMismatch { .. }))));
        assert_eq!(db.engine().wal().stats().appends, appends);
        assert_eq!(db.get_object(t, oid).unwrap(), state);
        db.commit(t).unwrap();
    }

    #[test]
    fn a_nested_invoke_on_the_receiver_sees_and_is_seen() {
        let db = write_back_db();
        let t = db.begin().unwrap();
        let oid = lot(&db, t);
        let left = db.invoke(t, oid, RESTOCK, vec![("qty".into(), 5.into())]).unwrap();
        assert_eq!(left.as_int(), Some(14), "the body saw what the nested call wrote");
        assert_eq!(db.get_object(t, oid).unwrap().get("holdings").unwrap().as_int(), Some(14));
        db.commit(t).unwrap();
    }

    #[test]
    fn registering_a_class_or_a_body_invalidates_cached_wrappers() {
        let db = stock_db();
        let t = db.begin().unwrap();
        let oid = ibm(&db, t);
        let price = |p: f64| vec![("price".to_string(), AttrValue::Float(p))];
        db.invoke(t, oid, "void set_price(float price)", price(2.0)).unwrap();
        // A new body for the same method replaces the cached one.
        db.register_method(
            "STOCK",
            "void set_price(float price)",
            Arc::new(|ctx| {
                ctx.set_attr("price", -1.0)?;
                Ok(AttrValue::Null)
            }),
        );
        db.invoke(t, oid, "void set_price(float price)", price(3.0)).unwrap();
        assert_eq!(db.get_object(t, oid).unwrap().get("price").unwrap().as_float(), Some(-1.0));
        db.commit(t).unwrap();
    }
}
