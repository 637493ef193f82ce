"""Neural models: dual-branch BiLSTM, encoder head, Siamese contrastive."""
