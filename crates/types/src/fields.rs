//! Named counter records: one field list per stats struct.
//!
//! A record lists its fields once, beside the struct, with [`fields!`](crate::fields!);
//! the checkpoint writes and reads every record through that list, and
//! [`Fields::merge`] sums per-shard and per-cluster copies through it. The
//! list destructures the struct without `..`, so a field missing from it
//! is a compile error rather than a counter that silently reads back as 0.

/// A mutable view of one field of a [`Fields`] record.
#[derive(Debug)]
pub enum Field<'a> {
    /// An event count.
    U64(&'a mut u64),
    /// A derived quantity (cycles, ratios, joules).
    F64(&'a mut f64),
}

impl<'a> From<&'a mut u64> for Field<'a> {
    fn from(v: &'a mut u64) -> Self {
        Field::U64(v)
    }
}

impl<'a> From<&'a mut f64> for Field<'a> {
    fn from(v: &'a mut f64) -> Self {
        Field::F64(v)
    }
}

/// A record of named `u64`/`f64` fields; implement it with [`fields!`](crate::fields!).
pub trait Fields: Copy {
    /// Calls `f` with each field's name and a mutable view of it, in
    /// declaration order.
    fn each(&mut self, f: impl FnMut(&'static str, Field<'_>));

    /// Adds `other`'s `u64` fields into `self`'s (the counters are
    /// commutative sums, so shards and clusters merge in any order);
    /// `f64` fields are left as they are.
    fn merge(&mut self, other: &Self) {
        let mut other = *other;
        let mut add = Vec::with_capacity(16);
        other.each(|_, f| {
            if let Field::U64(v) = f {
                add.push(*v);
            }
        });
        let mut add = add.into_iter();
        self.each(|_, f| {
            if let Field::U64(v) = f {
                *v += add.next().expect("both walks visit the same fields");
            }
        });
    }
}

/// Implements [`Fields`] for a struct from the list of its fields, in
/// declaration order: `fields!(DramStats { reads, writes, … });`. Every
/// field must be listed.
#[macro_export]
macro_rules! fields {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Fields for $ty {
            fn each(&mut self, mut f: impl FnMut(&'static str, $crate::Field<'_>)) {
                let Self { $($field),+ } = self;
                $(f(stringify!($field), $crate::Field::from($field));)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Rec {
        hits: u64,
        ratio: f64,
        misses: u64,
    }

    crate::fields!(Rec { hits, ratio, misses });

    #[test]
    fn each_visits_in_list_order_and_merge_sums_the_counts() {
        let mut names = Vec::new();
        let mut r = Rec { hits: 1, ratio: 0.5, misses: 2 };
        r.each(|name, _| names.push(name));
        assert_eq!(names, ["hits", "ratio", "misses"]);
        r.merge(&Rec { hits: 10, ratio: 9.0, misses: 20 });
        assert_eq!(r, Rec { hits: 11, ratio: 0.5, misses: 22 });
    }
}
