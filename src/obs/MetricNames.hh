/**
 * @file
 * Central registry of observability metric names (DESIGN.md §9).
 *
 * Every name a MetricRegistry counter/gauge/histogram is created
 * under is declared here as a kMetric* constant.  Call sites must use
 * these constants, never string literals — the sblint rule
 * `untracked-metric` enforces it, which keeps the JSONL column set
 * greppable from one header and prevents two subsystems from
 * accidentally emitting the same series under two spellings.
 *
 * Naming convention: `<subsystem>.<quantity>`, lowercase, dots as
 * separators (the names become JSON keys in the metrics artifact, so
 * they must stay stable across releases).
 */

#ifndef SBORAM_OBS_METRICNAMES_HH
#define SBORAM_OBS_METRICNAMES_HH

#include <cstdint>

namespace sboram {
namespace obs {

// --- Counters (monotonic, sampled cumulatively) ----------------------

/** Real LLC requests served by the memory system. */
inline constexpr char kMetricRequests[] = "oram.requests";
/** Requests answered from the stash without a path access. */
inline constexpr char kMetricStashHits[] = "oram.stash_hits";
/** Tree path reads (requests, dummies and evictions). */
inline constexpr char kMetricPathReads[] = "oram.path_reads";
/** Path reads whose forward time a shadow copy advanced. */
inline constexpr char kMetricShadowForwards[] = "oram.shadow_forwards";
/** Shadow copies written into dummy slots. */
inline constexpr char kMetricShadowsWritten[] = "oram.shadows_written";
/** Corruptions healed from a duplicate copy. */
inline constexpr char kMetricFaultsRecovered[] = "fault.recovered";
/** Corruptions detected on read (tag failures). */
inline constexpr char kMetricFaultsDetected[] = "fault.detected";
/** Snapshots committed by the checkpoint hook. */
inline constexpr char kMetricCheckpoints[] = "ckpt.snapshots";
/** Tier-2 degraded-mode entries (stash backpressure engaged). */
inline constexpr char kMetricDegradedEntries[] =
    "health.degraded_entries";
/** Tier-3 checkpoint auto-rollbacks performed. */
inline constexpr char kMetricRollbacks[] = "health.rollbacks";
/** Service requests admitted into the bounded queue. */
inline constexpr char kMetricSvcAdmitted[] = "svc.admitted";
/** Service requests completed (data forwarded to the client). */
inline constexpr char kMetricSvcCompleted[] = "svc.completed";
/** Service requests shed with a structured outcome (admission-full
 *  or deadline-exhausted; never a silent drop). */
inline constexpr char kMetricSvcShed[] = "svc.shed";
/** Deadline expiries observed at the scheduler (each either retries
 *  with PRF-jittered backoff or escalates to a shed). */
inline constexpr char kMetricSvcDeadlineMisses[] =
    "svc.deadline_misses";
/** Deadline-triggered retries re-queued with backoff. */
inline constexpr char kMetricSvcRetries[] = "svc.retries";
/** Reads completed by fanning out another reader's path access. */
inline constexpr char kMetricSvcDedupJoins[] = "svc.dedup_joins";
/** SLO burn-rate windows whose burn crossed the breach threshold. */
inline constexpr char kMetricSvcSloBreaches[] = "svc.slo_breaches";

// --- Gauges (instantaneous, polled at each sample) -------------------

/** Real blocks currently resident in the stash. */
inline constexpr char kMetricStashReal[] = "stash.real";
/** Shadow copies currently resident in the stash. */
inline constexpr char kMetricStashShadow[] = "stash.shadow";
/** Current HD/RD partition level P (paper Section IV-D). */
inline constexpr char kMetricPartitionLevel[] = "policy.partition_level";
/** Current DRI saturating-counter value. */
inline constexpr char kMetricDriCounter[] = "policy.dri_counter";
/** Running stash-hit rate (stashHits / requests). */
inline constexpr char kMetricStashHitRate[] = "oram.stash_hit_rate";
/** Mean tree levels a shadow forward advanced the data. */
inline constexpr char kMetricShadowHitDepth[] = "oram.shadow_hit_depth";
/** Slots currently quarantined by the tier-1 failure table. */
inline constexpr char kMetricQuarantinedSlots[] =
    "health.quarantined_slots";
/** 1 while tier-2 stash backpressure is engaged, else 0. */
inline constexpr char kMetricDegraded[] = "health.degraded";
/** Requests currently waiting in the service admission queue. */
inline constexpr char kMetricSvcQueueDepth[] = "svc.queue_depth";
/** 1 while service backpressure (queue watermarks) is latched. */
inline constexpr char kMetricSvcBackpressure[] = "svc.backpressure";

// --- Histograms ------------------------------------------------------

/** Per-request forward latency (cycles from issue to LLC forward). */
inline constexpr char kMetricReqLatency[] = "req.latency";
/** Service latency (cycles from arrival to data forward). */
inline constexpr char kMetricSvcLatency[] = "svc.latency";

// --- Request stages (RequestTrace timelines) -------------------------
//
// Stage names label per-request timeline segments and double as the
// per-stage latency histogram names in the attribution table.  Like
// metric names they must come from this header: sblint's
// untracked-metric rule also checks the first argument of every
// TimelineRecord::stage() call and treats kStage* identifiers
// declared here (the ids, the names and the kStageNames table) as the
// canonical stage vocabulary.

/** Waiting in the admission queue, eligible or not yet issued. */
inline constexpr char kStageQueueWait[] = "svc.stage.queue_wait";
/** Parked in the PRF-jittered backoff window after a deadline miss. */
inline constexpr char kStageRetryBackoff[] = "svc.stage.retry_backoff";
/** Riding another reader's in-flight path access (dedup fan-out). */
inline constexpr char kStageDedupJoin[] = "svc.stage.dedup_join";
/** Own path access, data forwarded at the natural path position. */
inline constexpr char kStagePathAccess[] = "svc.stage.path_access";
/** Own path access, data forwarded early by a shadow copy. */
inline constexpr char kStageShadowForward[] =
    "svc.stage.shadow_forward";

/** Dense stage index: a timeline segment's type and the row of every
 *  per-stage table. */
enum StageId : std::uint8_t
{
    kStageIdQueueWait = 0,
    kStageIdRetryBackoff = 1,
    kStageIdDedupJoin = 2,
    kStageIdPathAccess = 3,
    kStageIdShadowForward = 4,
    kStageIdCount = 5,
};

/** Stage name by StageId. */
inline constexpr const char *kStageNames[kStageIdCount] = {
    kStageQueueWait, kStageRetryBackoff, kStageDedupJoin,
    kStagePathAccess, kStageShadowForward,
};

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_METRICNAMES_HH
