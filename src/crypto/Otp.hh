/**
 * @file
 * One-time-pad block cipher for ORAM blocks.
 *
 * Every path write re-encrypts each slot under a fresh nonce, so two
 * ciphertexts of the same plaintext are different — this is what makes
 * shadow blocks indistinguishable from ordinary dummy blocks (paper
 * Section IV-A).  The payload is encrypted in 64-bit lanes.
 *
 * Two storage shapes share one codec:
 *
 *   - CipherText owns its lanes (tests, standalone use).
 *   - CipherRef/CipherView point into an externally owned slab (the
 *     OramTree's geometry-indexed ciphertext arrays).  A CipherText
 *     converts implicitly to either view, so view-taking codec
 *     methods serve both shapes.
 *
 * The batch entry point encryptBatch() encrypts every pending slot of
 * a path write in one pass: nonces are assigned in call order
 * (identical to the sequence that per-slot encryptInto calls would
 * have drawn — the nonce sequence is a determinism contract), the
 * whole keystream is generated into one scratch buffer via PrfStream,
 * then lanes are XORed and the slots' tags computed.  verifyBatch()
 * is its read-side twin: the verdicts of every slot a path read
 * takes, in one call.
 *
 * Every tag — batch or single, encrypt or verify — comes from one
 * kernel, tagGroup().  A tag is a serial PRF chain (each link keys
 * the next), so one chain is latency-bound; the chains of different
 * slots are independent, so the kernel advances up to kTagGroup of
 * them in lockstep and the core overlaps their multiplies.  The tag
 * bits do not depend on how slots are grouped.
 */

#ifndef SBORAM_CRYPTO_OTP_HH
#define SBORAM_CRYPTO_OTP_HH

#include <cstdint>
#include <vector>

#include "Prf.hh"
#include "common/Types.hh"

namespace sboram {

/** Ciphertext for one slot: nonce in the clear plus padded lanes and
 *  an authentication tag (Tiny ORAM's baseline includes integrity
 *  verification [18]). */
struct CipherText
{
    std::uint64_t nonce = 0;
    std::uint64_t tag = 0;
    std::vector<std::uint64_t> lanes;
};

/** Mutable view of one slot's ciphertext storage inside a slab. */
struct CipherRef
{
    std::uint64_t *nonce = nullptr;
    std::uint64_t *tag = nullptr;
    std::uint64_t *lanes = nullptr;
    std::uint64_t words = 0;

    CipherRef() = default;
    CipherRef(std::uint64_t *n, std::uint64_t *t, std::uint64_t *l,
              std::uint64_t w)
        : nonce(n), tag(t), lanes(l), words(w) {}
    /** An owning CipherText is itself a one-slot slab. */
    CipherRef(CipherText &ct)
        : nonce(&ct.nonce), tag(&ct.tag), lanes(ct.lanes.data()),
          words(ct.lanes.size()) {}
};

/** Read-only view of one slot's ciphertext storage. */
struct CipherView
{
    const std::uint64_t *nonce = nullptr;
    const std::uint64_t *tag = nullptr;
    const std::uint64_t *lanes = nullptr;
    std::uint64_t words = 0;

    CipherView() = default;
    CipherView(const std::uint64_t *n, const std::uint64_t *t,
               const std::uint64_t *l, std::uint64_t w)
        : nonce(n), tag(t), lanes(l), words(w) {}
    CipherView(const CipherText &ct)
        : nonce(&ct.nonce), tag(&ct.tag), lanes(ct.lanes.data()),
          words(ct.lanes.size()) {}
    CipherView(const CipherRef &r)
        : nonce(r.nonce), tag(r.tag), lanes(r.lanes), words(r.words) {}
};

/**
 * One-time-pad codec.  Stateless apart from the key and a running
 * nonce counter (the nonce must never repeat under one key).
 */
class OtpCodec
{
  public:
    explicit OtpCodec(PrfKey key = PrfKey{}) : _key(key) {}

    /** Encrypt lanes under a fresh nonce and authenticate them. */
    CipherText
    encrypt(const std::vector<std::uint64_t> &plain)
    {
        CipherText ct;
        encryptInto(plain, ct);
        return ct;
    }

    /**
     * Encrypt into an existing ciphertext, reusing its lane storage
     * (the path-write hot path re-encrypts every slot; this keeps it
     * allocation-free once buffers exist).
     */
    SB_HOT void
    encryptInto(const std::vector<std::uint64_t> &plain, CipherText &ct)
    {
        ct.lanes.resize(plain.size());
        encryptRef(plain.data(), CipherRef(ct));
    }

    /**
     * Encrypt @p out.words plaintext lanes straight into slab
     * storage.  Allocation-free; the nonce is drawn from the same
     * counter as every other encrypt entry point.
     */
    SB_HOT void
    encryptRef(const std::uint64_t *plain, CipherRef out)
    {
        *out.nonce = ++_nonceCounter;
        const PrfStream ks(_key, *out.nonce);
        for (std::uint64_t i = 0; i < out.words; ++i)
            out.lanes[i] = plain[i] ^ ks.lane(i);
        const CipherView view(out);
        tagGroup(&view, 1, out.tag);
    }

    /**
     * Batch-encrypt @p count slots of @p words lanes each: assigns
     * nonces in array order, generates the keystream for all slots in
     * one pass into @p ksScratch (caller-pooled, >= count*words
     * words), then XORs the pads in and runs the tag kernel over
     * groups of kTagGroup slots.  Nonce sequence and ciphertext bits
     * are identical to count successive encryptRef calls.
     */
    SB_HOT void encryptBatch(const std::uint64_t *const *plains,
                             const CipherRef *outs, std::size_t count,
                             std::uint64_t words,
                             std::uint64_t *ksScratch);

    /** Decrypt a ciphertext produced by this codec's key. */
    std::vector<std::uint64_t>
    decrypt(const CipherText &ct) const
    {
        std::vector<std::uint64_t> plain;
        decryptInto(ct, plain);
        return plain;
    }

    /** Decrypt into @p plain, reusing its capacity (no verification:
     *  the caller has already authenticated or does not care). */
    void
    decryptInto(CipherView ct, std::vector<std::uint64_t> &plain) const
    {
        plain.resize(ct.words);
        const PrfStream ks(_key, *ct.nonce);
        for (std::uint64_t i = 0; i < ct.words; ++i)
            plain[i] = ct.lanes[i] ^ ks.lane(i);
    }

    /** True when the ciphertext's tag authenticates (verifyBatch's
     *  count-1 case). */
    bool
    verify(CipherView ct) const
    {
        std::uint64_t tag;
        tagGroup(&ct, 1, &tag);
        return *ct.tag == tag;
    }

    /**
     * Verdicts of @p count slots in one call: @p ok[i] is 1 when
     * slot i's tag authenticates, else 0.  Bit-identical to count
     * verify() calls; the tag chains run kTagGroup at a time.  All
     * slots must have the same number of lanes.
     */
    SB_HOT void verifyBatch(const CipherView *cts, std::size_t count,
                            std::uint8_t *ok) const;

    /** Decrypt with integrity verification; fatal-free: the caller
     *  decides how to react to tampering.  Decrypts in place so
     *  @p plain's capacity is reused.  Per-slot: the fault paths
     *  (healing, scrub) use it; the path read verifies in batch. */
    bool
    verifyDecrypt(CipherView ct,
                  std::vector<std::uint64_t> &plain) const
    {
        if (!verify(ct))
            return false;
        decryptInto(ct, plain);
        return true;
    }

    /** Slots whose tag chains the kernel advances in lockstep. */
    static constexpr std::size_t kTagGroup = 8;

    std::uint64_t noncesIssued() const { return _nonceCounter; }

    /**
     * Restore the nonce counter from a checkpoint.  Only valid with
     * the counter a snapshot of this codec reported; rewinding it
     * would reuse nonces and break the one-time-pad contract.
     */
    void restoreNonceCounter(std::uint64_t n) { _nonceCounter = n; }

  private:
    /**
     * The tag kernel.  A slot's tag is a keyed MAC over (nonce,
     * lanes): the PRF chain acc = prf64(key, nonce, "tag_"), then
     * acc = prf64(key, acc ^ lane[i], i + 1) per lane.  Not
     * cryptographically strong (see Prf.hh) but structurally
     * faithful: any bit flip in nonce or lanes breaks the tag.  Each
     * link keys the next, so one chain cannot be split; instead the
     * chains of @p n <= kTagGroup slots (all of cts[0].words lanes)
     * advance one link per lane in lockstep.  Writes @p tags[0..n).
     */
    SB_HOT void tagGroup(const CipherView *cts, std::size_t n,
                         std::uint64_t *tags) const;

    PrfKey _key;
    std::uint64_t _nonceCounter = 0;
};

} // namespace sboram

#endif // SBORAM_CRYPTO_OTP_HH
