//! Property tests for the count-bounded directory listing codec: the
//! `resok` a server builds never exceeds the count the client asked
//! for, a count with no room for the first entry is `TooSmall`, and
//! what was encoded decodes to the same names, cookies, verifier and
//! `eof`.

use fs_backend::FileKind;
use nfs::proto::{
    decode_plus_entry, decode_res, DirList, DirListEncoder, ReaddirArgs, WireDirEntry,
};
use nfs::{Fattr, FileHandle, NfsStat};
use proptest::prelude::*;
use xdr::{Decoder, Encoder, XdrCodec};

fn attr(fileid: u64) -> Fattr {
    Fattr {
        kind: [FileKind::Regular, FileKind::Dir, FileKind::Symlink][fileid as usize % 3],
        nlink: 1,
        size: fileid * 7,
        fileid,
        mtime_ns: 5_000_000_123,
        ctime_ns: 6_000_000_456,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn listing_never_exceeds_count_and_round_trips(
        name_lens in proptest::collection::vec(0..300usize, 0..40),
        count in 0..6000u32,
        dircount in proptest::option::of(0..6000u32),
        cookieverf in any::<u64>(),
        cookie_salt in any::<u64>(),
    ) {
        let args = ReaddirArgs {
            dir: FileHandle(1),
            cookie: 0,
            cookieverf: 0,
            dircount,
            count,
        };
        let names: Vec<String> = name_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| format!("{i:03}{}", "n".repeat(len)))
            .collect();
        let cookie = |i: usize| cookie_salt ^ (i as u64 + 1);
        let mut list = DirListEncoder::new(&args);
        let taken = names
            .iter()
            .enumerate()
            .take_while(|(i, name)| list.push(name, cookie(*i), &attr(*i as u64 + 2)))
            .count();
        let eof = taken == names.len();
        let body = list.finish(cookieverf, eof);

        let plus = dircount.is_some();
        let decoded = decode_res(body.clone(), |d| {
            if plus {
                DirList::decode(d, decode_plus_entry)
            } else {
                DirList::decode(d, |d| Ok((WireDirEntry::decode(d)?, None, FileHandle(0))))
            }
        })
        .unwrap();
        match decoded {
            Err(stat) => {
                prop_assert_eq!(stat, NfsStat::TooSmall);
                prop_assert!(count < 16 || (taken == 0 && !names.is_empty()));
            }
            Ok(page) => {
                // `count` bounds resok: everything after the status word.
                prop_assert!(body.len() - 4 <= count as usize);
                prop_assert_eq!(page.cookieverf, cookieverf);
                prop_assert_eq!(page.eof, eof);
                prop_assert_eq!(page.entries.len(), taken);
                prop_assert!(taken > 0 || eof);
                let mut dir_info = 0;
                for (i, (entry, fattr, fh)) in page.entries.iter().enumerate() {
                    let want = attr(i as u64 + 2);
                    prop_assert_eq!(&entry.name, &names[i]);
                    prop_assert_eq!(entry.cookie, cookie(i));
                    prop_assert_eq!(entry.fileid, want.fileid);
                    prop_assert_eq!(entry.kind, want.kind);
                    if plus {
                        prop_assert_eq!(*fattr, Some(want));
                        prop_assert_eq!(*fh, want.handle());
                    }
                    dir_info += 8 + 4 + entry.name.len().next_multiple_of(4) + 8;
                }
                prop_assert!(dir_info <= dircount.unwrap_or(u32::MAX) as usize);
            }
        }
    }

    #[test]
    fn readdir_args_round_trip(
        dir in any::<u64>(),
        cookie in any::<u64>(),
        cookieverf in any::<u64>(),
        dircount in proptest::option::of(any::<u32>()),
        count in any::<u32>(),
    ) {
        let args = ReaddirArgs { dir: FileHandle(dir), cookie, cookieverf, dircount, count };
        let mut enc = Encoder::new();
        args.encode(&mut enc);
        let mut dec = Decoder::new(enc.as_slice());
        prop_assert_eq!(ReaddirArgs::decode(&mut dec, dircount.is_some()).unwrap(), args);
        dec.expect_end().unwrap();
    }
}
