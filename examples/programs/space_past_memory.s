start:  halt
        .space 0x01000000
; Reserves 16 MiB after the code, past the end of the default 16 MiB
; memory: riscsim must refuse it while assembling (both backends),
; without building the padding.  Used by the riscsim_space_past_memory
; ctests.
