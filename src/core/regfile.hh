/**
 * @file
 * The overlapping register-window file — the paper's central hardware
 * idea.  Every procedure sees 32 registers:
 *
 *   r0..r9    GLOBAL  (r0 hardwired to zero)
 *   r10..r15  LOW     (outgoing parameters)
 *   r16..r25  LOCAL
 *   r26..r31  HIGH    (incoming parameters)
 *
 * A CALL slides the window one frame down so the caller's LOW registers
 * become the callee's HIGH registers (overlap = 6).  Physically the file
 * holds `globals + windows * 16` registers arranged circularly; with the
 * default 8 windows that is the 138-register file of the full design.
 */

#ifndef RISC1_CORE_REGFILE_HH
#define RISC1_CORE_REGFILE_HH

#include <array>
#include <cstdint>
#include <vector>

namespace risc1 {

/** Geometry of the windowed register file. */
struct WindowConfig
{
    unsigned numGlobals = 10;   ///< r0..r9
    unsigned numLocals = 10;    ///< r16..r25
    unsigned overlap = 6;       ///< LOW/HIGH size
    unsigned numWindows = 8;    ///< physical window frames

    /** Registers a window frame contributes (locals + one overlap). */
    unsigned frameSize() const { return numLocals + overlap; }

    /** Total physical registers. */
    unsigned physRegs() const
    {
        return numGlobals + numWindows * frameSize();
    }

    /** Nested activations resident before a CALL must spill. */
    unsigned capacity() const { return numWindows - 1; }

    /** The full design the paper argues for: 8 windows, 138 registers. */
    static WindowConfig full() { return WindowConfig{}; }

    /** A resource-constrained 6-window file (106 registers). */
    static WindowConfig gold()
    {
        WindowConfig cfg;
        cfg.numWindows = 6;
        return cfg;
    }

    bool operator==(const WindowConfig &) const = default;
};

/** Visible-register group classification. */
enum class RegGroup : std::uint8_t { Global, Low, Local, High };

/** Classify a visible register number (0..31). */
RegGroup regGroup(unsigned reg);

/**
 * The physical register file with window mapping.
 *
 * The file knows nothing about traps; the Machine decides when a window
 * push/pop requires a spill/fill and uses frame() to move the 16
 * registers of a frame to/from memory.
 *
 * Like RISC I's register decoder, the mapping costs nothing per
 * access: the file keeps a 32-entry table from each visible register
 * to its physical index in the current window — globals to
 * themselves, LOW/LOCAL to the window's own frame, HIGH to the LOW of
 * the window above (the caller's) — and rewrites its 22 windowed
 * entries whenever the CWP moves: construction, pushWindow(),
 * popWindow(), reset() and restore().  An access is then one table
 * load: no compare on the register number, no division, no
 * out-of-line call (docs/ISA.md).  r0 maps to physical register 0,
 * which no write reaches, so it reads 0.
 */
class RegFile
{
  public:
    explicit RegFile(const WindowConfig &config = WindowConfig::full());

    const WindowConfig &config() const { return config_; }

    /** Current window pointer (frame index, 0-based, circular). */
    unsigned cwp() const { return cwp_; }

    /** Read visible register @p reg (0..31) in the current window. */
    std::uint32_t
    read(unsigned reg) const
    {
        return phys_[physIndex(reg)];
    }

    /** Write visible register @p reg; writes to r0 are discarded. */
    void
    write(unsigned reg, std::uint32_t value)
    {
        if (reg != 0) // r0 is hardwired to zero
            phys_[physIndex(reg)] = value;
    }

    /** Slide the window down (CALL direction). */
    void
    pushWindow()
    {
        setCwp(cwp_ == 0 ? config_.numWindows - 1 : cwp_ - 1);
    }

    /** Slide the window up (RETURN direction). */
    void popWindow() { setCwp(nextWindow(cwp_)); }

    /**
     * Access the 16 (frameSize) physical registers that make up the
     * *activation state* of window frame @p window, for trap spill/fill.
     * Index 0..overlap-1 covers the frame's HIGH (incoming-parameter)
     * registers, index overlap..frameSize-1 its LOCAL registers.  The
     * frame's LOW registers are excluded: they are the callee's HIGHs
     * and belong to the callee's activation.
     */
    std::uint32_t
    frameReg(unsigned window, unsigned index) const
    {
        return phys_[frameIndex("frameReg", window, index)];
    }

    void
    setFrameReg(unsigned window, unsigned index, std::uint32_t value)
    {
        phys_[frameIndex("setFrameReg", window, index)] = value;
    }

    /** Map a visible register to its physical index (r0 maps to 0). */
    unsigned
    physIndex(unsigned reg) const
    {
        if (reg >= 32)
            badRegister(reg);
        return map_[reg];
    }

    /** Zero every physical register and reset CWP. */
    void reset();

    /** The raw physical register array (for machine snapshots). */
    const std::vector<std::uint32_t> &physRegs() const { return phys_; }

    /**
     * Restore the full physical state captured by physRegs()/cwp().
     * @throws FatalError when @p phys does not match this file's
     * geometry or @p cwp is out of range.
     */
    void restore(const std::vector<std::uint32_t> &phys, unsigned cwp);

  private:
    unsigned
    windowBase(unsigned window) const
    {
        return config_.numGlobals + window * config_.frameSize();
    }

    /** The frame above @p window (the caller's), wrapping circularly. */
    unsigned
    nextWindow(unsigned window) const
    {
        return window + 1 == config_.numWindows ? 0 : window + 1;
    }

    /** Move the CWP and remap the windowed registers. */
    void
    setCwp(unsigned cwp)
    {
        cwp_ = cwp;
        // LOW at frame offsets 0..5, LOCAL at 6..15; HIGH of this
        // window is LOW of the window above (the caller).
        const unsigned low = windowBase(cwp);
        const unsigned high = windowBase(nextWindow(cwp));
        for (unsigned r = 10; r < 26; ++r)
            map_[r] = static_cast<std::uint16_t>(low + (r - 10));
        for (unsigned r = 26; r < 32; ++r)
            map_[r] = static_cast<std::uint16_t>(high + (r - 26));
    }

    /** Physical index of frameReg(@p window, @p index). */
    unsigned
    frameIndex(const char *what, unsigned window, unsigned index) const
    {
        if (window >= config_.numWindows ||
            index >= config_.frameSize())
            badFrameReg(what, window, index);
        // HIGHs live in the LOW of the frame above.
        return index < config_.overlap
                   ? windowBase(nextWindow(window)) + index
                   : windowBase(window) + index;
    }

    [[noreturn]] static void badRegister(unsigned reg);
    [[noreturn]] static void badFrameReg(const char *what, unsigned window,
                                         unsigned index);

    WindowConfig config_;
    std::vector<std::uint32_t> phys_;
    unsigned cwp_ = 0;
    /** Physical index of each visible register in this window. */
    std::array<std::uint16_t, 32> map_{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
};

} // namespace risc1

#endif // RISC1_CORE_REGFILE_HH
