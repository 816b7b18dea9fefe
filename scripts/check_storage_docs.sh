#!/usr/bin/env sh
# Docs coverage check (run by CI, runnable locally from the repo root):
# 1. every file under src/storage/ must be mentioned by name in
#    docs/storage_format.md, docs/api.md, or README.md, so the on-disk
#    format spec and the architecture map can never silently drift behind
#    the code;
# 2. the core query/catalog API names must appear in docs/api.md, so the
#    cursor/catalog documentation cannot silently rot either;
# 3. every file under src/obs/ must be mentioned in
#    docs/observability.md, and the observability surface (metric types,
#    exporters, trace ring, bench report) must be documented there too;
# 4. the concurrency story must be documented in docs/concurrency.md;
# 5. every file under src/net/ must be mentioned in
#    docs/network_protocol.md, docs/api.md, or README.md, and the wire
#    protocol surface (frame fields, request catalog, session knobs,
#    net.* metrics) must be documented in docs/network_protocol.md.
set -eu

cd "$(dirname "$0")/.."
fail=0
for path in src/storage/*; do
  name="$(basename "$path")"
  if ! grep -q "$name" docs/storage_format.md docs/api.md README.md; then
    echo "UNDOCUMENTED: $path (mention it in docs/storage_format.md, docs/api.md, or README.md)"
    fail=1
  fi
done
for symbol in SfcDb SfcTable Cursor ReadOptions NewBoxCursor NewScanCursor \
              DrainCursor SyncUpTo CreateTable DropTable hit_read_budget \
              PageCodec kDeltaVarint kBitpack filter_bits_per_key ProbeFilter \
              pages_skipped_by_filter disk_bytes decoded_bytes \
              readahead_pages \
              SegmentInfos WriteBatch GetSnapshot Snapshot DbSnapshot \
              Delete last_sequence Corruption CRC32C Crc32cPortable \
              SecondaryIndexSpec IndexExtractor CreateIndex DropIndex \
              ListIndexes IndexTable NewIndexCursor IndexReadOptions \
              AdviseCurve CurveAdvice MigrateIndexCurve; do
  if ! grep -q "$symbol" docs/api.md; then
    echo "UNDOCUMENTED API: $symbol (document it in docs/api.md)"
    fail=1
  fi
done
for path in src/obs/*; do
  name="$(basename "$path")"
  if ! grep -q "$name" docs/observability.md docs/api.md README.md; then
    echo "UNDOCUMENTED: $path (mention it in docs/observability.md, docs/api.md, or README.md)"
    fail=1
  fi
done
for symbol in MetricsRegistry Counter Gauge Histogram HistogramSnapshot \
              ScopedTimer kHistogramBuckets NowMicros DumpMetrics \
              DumpTrace MetricsFormat kPrometheus TraceRing TraceEvent \
              bench_report BENCH_ ops_per_sec p99_us pool_hit_ratio \
              pool_hit_ratio_cold readahead_batched_reads readahead_hits \
              readahead_wasted bmi2_supported encode2_scalar_ns \
              sse42_supported crc32c_ns_per_kib \
              wal.fsync_us flush.us compaction.us net.request_us \
              db.batch_commit_us index.queries index.dangling_entries \
              index.rows_resolved; do
  if ! grep -q "$symbol" docs/observability.md; then
    echo "UNDOCUMENTED OBSERVABILITY: $symbol (document it in docs/observability.md)"
    fail=1
  fi
done
# 4. the concurrency story (locks, annotations, enforcement) must be
#    documented in docs/concurrency.md: the annotated-mutex layer itself,
#    plus every lock name and annotation macro the engine leans on.
for path in src/common/mutex.h src/common/thread_annotations.h \
            tests/thread_safety_compile_test.cc; do
  name="$(basename "$path")"
  if ! grep -q "$name" docs/concurrency.md; then
    echo "UNDOCUMENTED: $path (mention it in docs/concurrency.md)"
    fail=1
  fi
done
for symbol in ONION_GUARDED_BY ONION_REQUIRES ONION_ACQUIRED_BEFORE \
              ONION_NO_THREAD_SAFETY_ANALYSIS ONION_THREAD_SAFETY \
              Mutex SharedMutex MutexLock WriterLock ReaderLock \
              wal_mu_ manifest_mu_ batch_mu_ db_mu_ sync_mu_ Shard::mu \
              SyncUpTo CommitSlicesLocked InstallManifest \
              version_ LogAndApplyLocked \
              thread_safety_compile_negative run_clang_tidy; do
  if ! grep -q "$symbol" docs/concurrency.md; then
    echo "UNDOCUMENTED CONCURRENCY: $symbol (document it in docs/concurrency.md)"
    fail=1
  fi
done
# 5. the network front end: every src/net/ file, plus the protocol and
#    session-model vocabulary in docs/network_protocol.md, and the net
#    metric catalog in docs/observability.md.
for path in src/net/*; do
  name="$(basename "$path")"
  if ! grep -q "$name" docs/network_protocol.md docs/api.md README.md; then
    echo "UNDOCUMENTED: $path (mention it in docs/network_protocol.md, docs/api.md, or README.md)"
    fail=1
  fi
done
for symbol in SfcServer SfcClient FrameDecoder PayloadReader MessageType \
              kResponseBit request_id CRC32C max_frame_bytes StatusCode \
              kPut kDelete kWrite kGet kOpenBoxCursor kCursorNext \
              kCursorClose kOpenIndexCursor kSnapshotAcquire \
              kSnapshotRelease kDumpMetrics kPing \
              kCursorDone kCursorHitReadBudget max_entries_per_chunk \
              snapshot_id write_queue_limit_bytes max_connections \
              session_idle_deadline_ms max_requests_per_tick \
              net.frames_bad net.requests_bad net.write_queue_stalls \
              net.connections_refused net.sessions_expired \
              snapshots.force_released session_expire \
              bench_net BENCH_net sfc_net_demo net_test; do
  if ! grep -q "$symbol" docs/network_protocol.md; then
    echo "UNDOCUMENTED PROTOCOL: $symbol (document it in docs/network_protocol.md)"
    fail=1
  fi
done
for symbol in net.request_us net.active_connections net.snapshots_pinned \
              net.cursors_open net.bytes_read net.bytes_written \
              net.connections_accepted active_connections_mid_run \
              pipeline_window session_expire snapshots.force_released; do
  if ! grep -q "$symbol" docs/observability.md; then
    echo "UNDOCUMENTED OBSERVABILITY: $symbol (document it in docs/observability.md)"
    fail=1
  fi
done
if [ "$fail" -eq 0 ]; then
  echo "docs check OK: every src/storage/, src/obs/, and src/net/ file, core API name, concurrency symbol, and protocol symbol is documented"
fi
exit "$fail"
