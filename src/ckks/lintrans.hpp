/**
 * @file
 * Homomorphic linear transforms (paper Section III-F7).
 *
 * A slot-space linear map is represented by its (rotation) diagonals:
 * y[j] = sum_d diag_d[j] * v[j + d mod slots]. Homomorphic evaluation
 * uses the BSGS algorithm -- baby rotations shared via HoistedRotate,
 * per-group fused plaintext dot products, then giant rotations --
 * reducing rotations from |D| to about 2*sqrt(|D|).
 *
 * CoeffToSlot / SlotToCoeff are built here as products of the special
 * FFT's radix-2 butterfly stages (3 diagonals each); consecutive
 * stages are merged ("level budget") by sparse diagonal composition,
 * trading rotations for multiplicative depth exactly as in the
 * sparse block-matrix DFT decomposition the paper adopts. The
 * bit-reversal permutation is never evaluated homomorphically: the
 * slot order between CoeffToSlot and SlotToCoeff is bit-reversed,
 * which the element-wise ApproxModEval does not observe.
 */

#pragma once

#include <map>

#include "ckks/evaluator.hpp"

namespace fideslib::ckks
{

/** A slot-space linear map stored by diagonals. */
class DiagMatrix
{
  public:
    explicit DiagMatrix(u32 slots) : slots_(slots) {}

    u32 slots() const { return slots_; }
    const std::map<i64, std::vector<Cplx>> &diags() const
    {
        return diags_;
    }

    /** Accumulates into diagonal @p offset (normalized mod slots). */
    void addToDiag(i64 offset, std::size_t index, Cplx value);

    /** Plain (unencrypted) application, the test oracle. */
    std::vector<Cplx> apply(const std::vector<Cplx> &v) const;

    /** Multiplies every entry by a constant. */
    void scale(Cplx c);

    /** Identity map. */
    static DiagMatrix identity(u32 slots);
    /** From a dense slots x slots matrix (row-major). */
    static DiagMatrix fromDense(u32 slots,
                                const std::vector<Cplx> &dense);
    /** A = this composed after other: (this*other)(v). */
    DiagMatrix composeAfter(const DiagMatrix &other) const;

    /**
     * Butterfly stage `len` of the special FFT on @p slots slots;
     * @p inverse selects the C2S (decimation-undoing) direction.
     * Stage values include the 1/2 normalization on the inverse so
     * diagonal magnitudes stay O(1).
     */
    static DiagMatrix fftStage(u32 slots, u32 len, bool inverse);

  private:
    u32 slots_;
    std::map<i64, std::vector<Cplx>> diags_;
};

/**
 * Groups the log2(slots) butterfly stages into @p budget composed
 * matrices (C2S order: large len first; S2C order: small len first).
 */
std::vector<DiagMatrix> buildC2SStages(u32 slots, u32 budget);
std::vector<DiagMatrix> buildS2CStages(u32 slots, u32 budget);

/** BSGS plan for one matrix: which rotations it needs. */
struct BsgsPlan
{
    i64 babyCount;            //!< bs: baby-step stride
    std::vector<i64> babies;  //!< baby rotation amounts (incl. 0)
    std::vector<i64> giants;  //!< giant rotation amounts (incl. 0)
};

/** Derives the BSGS split for a diagonal offset set. */
BsgsPlan planBsgs(const DiagMatrix &m);

/**
 * Homomorphically applies @p m to a canonical ciphertext via BSGS
 * and rescales; the result is canonical one level down. Plaintext
 * diagonals are encoded at the ciphertext's level on the fly (the
 * Bootstrapper caches the encodings across calls).
 */
Ciphertext applyDiagMatrix(const Evaluator &eval, const Ciphertext &ct,
                           const DiagMatrix &m);

/**
 * Encoded form of one matrix at one (level, scale): the per-group
 * pre-rotated plaintext diagonals, ready for the fused dot product.
 */
struct EncodedDiagMatrix
{
    BsgsPlan plan;
    //! groups[g][j] = plaintext of rot_{-g}(diag_{g+j})
    std::map<i64, std::map<i64, Plaintext>> groups;
    u32 level;
};

/** Encodes @p m for application at @p level (canonical scale). */
EncodedDiagMatrix encodeDiagMatrix(const Evaluator &eval,
                                   const DiagMatrix &m, u32 slots,
                                   u32 level);

/** Applies a pre-encoded matrix (ct must be canonical at its level). */
Ciphertext applyEncoded(const Evaluator &eval, const Ciphertext &ct,
                        const EncodedDiagMatrix &enc);

/** All rotation indices @p m needs (for key generation). */
std::vector<i64> requiredRotations(const DiagMatrix &m);

} // namespace fideslib::ckks
